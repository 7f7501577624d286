"""Every command in ``cli_transcript.json`` still exits, prints and complains as
recorded: the same stdout bytes, the same exit code and the same first stderr
line of the program's own.  ``make_cli_transcript.py`` regenerates the file."""

from __future__ import annotations

import json

from make_cli_transcript import TRANSCRIPT, record


def test_every_command_prints_its_recorded_bytes():
    recorded = json.loads(TRANSCRIPT.read_text())
    assert len(recorded) > 250
    changed = [" ".join(entry["argv"]) for entry in recorded if record(entry["argv"]) != entry]
    assert not changed, f"{len(changed)} command(s) differ from the transcript: " + " | ".join(changed)
