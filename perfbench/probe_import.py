"""Time ``import delayedhits, delayedhits.cli`` in this fresh interpreter.

Usage: python3 perfbench/probe_import.py  (with src/ on PYTHONPATH)

Prints one JSON line: the import's host seconds and the reference loop's
seconds per chunk around it (see reference.py).
"""

import json
import time

from reference import seconds_per_chunk

REFERENCE_S = 0.03

before = seconds_per_chunk(REFERENCE_S)
start = time.perf_counter()
import delayedhits  # noqa: E402,F401
import delayedhits.cli  # noqa: E402,F401
host_s = time.perf_counter() - start
after = seconds_per_chunk(REFERENCE_S)
print(json.dumps({"host_s": host_s, "chunk_s": (before + after) / 2}))
