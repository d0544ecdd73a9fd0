"""The demos run end to end and print exactly what they printed when pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's full stdout; any change to what a demo shows
# (demo 01 prints a run's hit sequence and evictions) shows here
DIGESTS = {
    "01_delayed_hits_basics.py":
        "442dc10037f2d0e0381174e470555c332e77ea4cab56f91c0a1b04807c4f7413",
    "02_latency_as_a_function_of_hits.py":
        "68a005a3b3ae135ebf4fdf29a241ad3673c3ab69ed6ace12c98695de172dc7dd",
    "03_adversarial_lower_bound.py":
        "3b8388701af813d88e8b053e4969e523eca69b9d60474f3916156de8c15d24f8",
    "04_when_a_hit_hurts.py":
        "7b8213139d4d0d1c4dfeb06dc5ccf0f87e61310c2c211676a7e79ae17c28217e",
    "05_reduction_to_bigger_cache.py":
        "5c570dfbb6b259e12cb4464d013e27aaaa4acd15f2a03a727086e235de3a7617",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_is_pinned(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DIGESTS[name]
