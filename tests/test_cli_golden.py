"""Byte-for-byte CLI output on a fixed table of invocations.

``cli_golden.json`` holds, for each invocation, the argument list, the exit
code and the exact stdout that ``quadberk.cli.run`` produced when the table
was recorded.  Any change to the text or JSON the CLI prints shows up here.
"""

import json
from pathlib import Path

import pytest
from quadberk.cli import run

GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_cli_matches_golden(case, capsys):
    assert run(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
