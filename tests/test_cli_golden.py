"""Golden test: the exact stdout, stderr and exit code of the CLI.

``tests/data/cli_golden.json`` holds one record per command line in
``CASES``.  Each command runs as text, ``--json`` and ``--json --decimal``,
so the file pins every byte of the indented JSON encoding, the text
renderings, the refusal and usage-error messages and their exit codes.
Regenerate the file (``python tests/test_cli_golden.py``) only for a
deliberate output change, and say so in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from gamma4.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

EXPRESSIONS = ("T(2,3) - T(5,6)", "T(2,3) + T(3,4) - T(2,5)")
MODES = ((), ("--json",), ("--json", "--decimal"))


def _commands() -> list[list[str]]:
    commands = []
    for expr in EXPRESSIONS:
        commands += [
            ["invariants", expr],
            ["bound", expr],
            ["bound", expr, "--stable", "6"],
            ["d-invariant", expr, "7"],
            ["d-invariant", expr, "-5"],
            ["omega", expr, "--max-n", "6"],
            ["cfk-dump", expr],
        ]
    commands += [
        ["thin", "--tau", "3", "--sigma", "-4"],
        # a complex route over the cap: exit 3
        ["bound", EXPRESSIONS[1], "--stable", "2", "--genus-cap", "2"],
        # the horizon is checked before any profile is read: exit 2
        ["bound", EXPRESSIONS[1], "--stable", "0", "--genus-cap", "2"],
        ["verify", "--subset", "example-headline"],
        ["verify", "--subset", "staircase2n"],
        ["verify", "--subset", "sharpness"],
        ["invariants", ""],
        # a zero framing: exit 2
        ["d-invariant", EXPRESSIONS[0], "0"],
        # the parse error names the link before the horizon is checked: exit 2
        ["omega", "T(2,4)", "--max-n", "0"],
        # a complex route over the cap: exit 3
        ["cfk-dump", EXPRESSIONS[1], "--genus-cap", "2"],
        # a closed-form route whose dump would need 78125 generators: exit 3
        ["cfk-dump", "7*T(2,5)"],
        # two 5-generator staircases: their order sets the numbering
        ["cfk-dump", "T(2,5) + T(3,4) - T(2,3)"],
        # an adjacent power inside the tensor
        ["cfk-dump", "2*T(2,3) + T(2,5) - T(3,4)"],
        # a one-sided sum over the cap: exit 3
        ["invariants", "T(2,3) + T(3,5)", "--genus-cap", "3"],
        # a complex route over the generator limit: exit 3
        ["bound", "8*T(2,5) - T(2,3)"],
    ]
    return commands


CASES = [command + list(mode) for command in _commands() for mode in MODES]


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


@pytest.fixture(scope="module")
def golden() -> dict[tuple[str, ...], dict]:
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(record["argv"]): record for record in records}


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert _run(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps([_run(argv) for argv in CASES], indent=1) + "\n",
        encoding="utf-8",
    )
