"""The 16-step ``drift`` dumps against the committed digest ledger."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stable_digests.py"


def _stable_digests():
    spec = importlib.util.spec_from_file_location("stable_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_16_step_drift_dumps_match_the_ledger():
    digests = _stable_digests()
    head, want = digests.read_ledger(SCRIPT.with_name("digests.txt"))
    message = digests.versions_message(head)
    if message:
        pytest.skip(message)
    selected = [(label, argv) for label, argv in digests.runs()
                if label.startswith("drift ") and label.endswith(" steps=16")]
    assert len(selected) == 35
    moved = [label for label, lines in digests.digests(selected) if want.get(label) != lines]
    assert moved == []
