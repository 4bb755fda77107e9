"""Smoke-run every example script.

The examples are the library's living documentation; this keeps them
executable.  Each runs in a subprocess with a scratch working
directory (some examples write result files) and must exit cleanly
with its headline output present.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _example_env():
    """Subprocess environment with the library importable from src/."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC_DIR) + (os.pathsep + existing if existing else "")
    )
    return env

EXPECTED_MARKERS = {
    "quickstart.py": "Multi-RowCopy",
    "decoder_walkthrough.py": "rows 0, 1, 6, 7",
    "characterize_module.py": "Multi-RowCopy needs a full tRAS",
    "cold_boot_defense.py": "End-to-end attack",
    "random_numbers.py": "monobit",
    "memory_controller.py": "Controller statistics",
    "sensing_waveforms.py": "time to latch",
    "full_campaign.py": "Stored results",
}


def all_example_files():
    return sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_every_example_has_a_marker():
    assert set(all_example_files()) == set(EXPECTED_MARKERS)


@pytest.mark.parametrize("name", sorted(EXPECTED_MARKERS))
def test_example_runs_clean(name, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
        env=_example_env(),
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert EXPECTED_MARKERS[name] in completed.stdout, (
        f"{name} output missing marker {EXPECTED_MARKERS[name]!r}"
    )
