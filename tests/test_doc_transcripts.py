"""EXPERIMENTS.md's drill transcripts are what their commands print.

Each drill section quotes a ``repro trace --scenario …`` command in a
``bash`` block and its whole stdout in the block after it; this runs the
command through :func:`repro.cli.main` in an empty directory (the trace
file it names lands there) and requires the same bytes.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import main

EXPERIMENTS = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def _transcript(heading):
    section = EXPERIMENTS.read_text(encoding="utf-8").split(f"\n## {heading}", 1)[1]
    section = section.split("\n## ", 1)[0]
    command, output = re.search(
        r"```bash\n(.*?)\n```\n\n```\n(.*?)```", section, re.DOTALL
    ).groups()
    argv = shlex.split(command)
    assert argv[:3] == ["python", "-m", "repro"], command
    return argv[3:], output


@pytest.mark.parametrize("heading", [
    "Fault drill — enclave outage",
    "Membership drill — replica crash, revocation, rotation",
], ids=["enclave-outage", "membership-churn"])
def test_drill_transcript_is_the_command_output(heading, capsys, tmp_path, monkeypatch):
    argv, output = _transcript(heading)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out == output
