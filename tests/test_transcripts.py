"""The command line's output, pinned byte for byte.

``data/cli_transcripts.json`` holds, for each command, its arguments, its
exit code and its full standard output: ``sup``, ``scl`` and ``simulate``
on the four golden problems and ``gen --seed 0`` to ``--seed 3``. A
problem file is named relative to ``data``. Any change to a derivation, a
rule log, a round, a verdict, a model or a generated problem shows here.
"""

import json
import os

import pytest

from lockstep import cli

DATA = os.path.join(os.path.dirname(__file__), "data")

with open(os.path.join(DATA, "cli_transcripts.json"), encoding="utf-8") as _fh:
    TRANSCRIPTS = json.load(_fh)


@pytest.mark.parametrize("pinned", TRANSCRIPTS, ids=lambda t: " ".join(t["argv"]))
def test_cli_output_is_pinned(pinned, capsys):
    argv = [os.path.join(DATA, a) if a.endswith(".prob") else a for a in pinned["argv"]]
    assert cli.main(argv) == pinned["exit"]
    assert capsys.readouterr().out == pinned["stdout"]
