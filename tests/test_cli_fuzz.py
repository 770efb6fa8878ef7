"""The CLI's exit-code contract on mutated bundled inputs.

Each call runs one of the five commands through ``cli.main`` in process, with
one input mutated: the knowledge base, the bias or the examples file, or a
rule or atom given on the command line.  A mutation deletes a token, inserts
a copy of one, or swaps two, where a token is a name, a run of blanks or a
single other character.  Whatever the input, the call returns an exit code
in 0-3 and raises nothing, and a ``--format json`` report on standard output
validates against ``docs/report-schema.json``.
"""

import json
import random
import re
from importlib import resources
from pathlib import Path

import jsonschema

from ontorules.cli import main

DATA = resources.files("ontorules") / "data"
SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "report-schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
TOKEN = re.compile(r"[A-Za-z0-9_-]+|\s+|.", re.DOTALL)

#: Options that name a file: the bundled file is read, and written mutated
#: or not to a temporary file.  Other options take their value inline.
FILE_OPTIONS = ("--kb", "--examples", "--bias")
#: Per command: its options, with a bundled file name or an inline value.
COMMANDS = {
    "learn": {"--kb": "family.okb", "--examples": "loner.oex", "--bias": "loner.obias"},
    "check": {"--kb": "family.okb", "--rule": "LONER(X) :- famous(X), not happy(X).", "--example": "LONER(Mary)"},
    "compare": {"--kb": "family.okb", "--rule1": "LIKES(X,Y) :- meets(X,Z,Y), not happy(X).",
                "--rule2": "LIKES(X,Y) :- meets(X,Z,Y), RICH(Z), not famous(Z)."},
    "refine": {"--kb": "family.okb", "--bias": "likes.obias", "--rule": "LIKES(X,Y) :- meets(X,Z,Y)."},
    "query": {"--kb": "family.okb", "--atom": "happy(Mary)"},
}
CALLS = 300


def mutate(text: str, rng: random.Random) -> str:
    tokens = TOKEN.findall(text)
    for _ in range(rng.randint(1, 2)):
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        edit = rng.choice(("delete", "insert", "swap"))
        if edit == "delete" and len(tokens) > 1:
            del tokens[i]
        elif edit == "insert":
            tokens.insert(i, tokens[j])
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


def test_mutated_inputs_keep_the_exit_code_contract(capsys, tmp_path):
    codes = set()
    for seed in range(CALLS):
        rng = random.Random(seed)
        command = rng.choice(sorted(COMMANDS))
        options = COMMANDS[command]
        target = rng.choice(sorted(options))
        fmt = rng.choice(("text", "json"))
        argv = [command, "--format", fmt]
        for option, source in options.items():
            text = (DATA / source).read_text(encoding="utf-8") if option in FILE_OPTIONS else source
            if option == target:
                text = mutate(text, rng)
            if option in FILE_OPTIONS:
                path = tmp_path / f"{seed}-{source}"
                path.write_text(text, encoding="utf-8")
                text = str(path)
            argv += [option, text]
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), (seed, argv)
        if fmt == "json" and out:
            jsonschema.validate(json.loads(out), SCHEMA)
        codes.add((command, code))
    # the mutations reach every command's results and its input errors
    assert {(command, code) for command in COMMANDS for code in (0, 1)} <= codes, codes
