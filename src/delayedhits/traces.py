"""Trace files: one nonnegative integer per line, 0 meaning an idle slot.

Files are read one line at a time; lines end at universal newlines (LF,
CRLF or CR). Blank lines and '#' comments are ignored. When no universe
size is given it is inferred as the largest item in the trace (minimum 1
so parameters stay valid for all-idle traces).
"""

from __future__ import annotations


class TraceError(Exception):
    """The trace file cannot be read or fails validation."""


def parse_trace(lines) -> list[int]:
    items = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            # a bare number, the common line: int() itself skips whitespace
            value = int(raw)
        except ValueError:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                value = int(line)
            except ValueError:
                raise TraceError(f"line {lineno}: {line!r} is not an integer") from None
        if value < 0:
            raise TraceError(f"line {lineno}: requests must be nonnegative")
        items.append(value)
    return items


def read_trace(path) -> list[int]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_trace(fh)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from None


def write_trace(path, sequence) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in sequence:
            fh.write(f"{item}\n")


def request_times(sequence) -> dict[int, list[int]]:
    """Each requested item's request times (1-based), in ascending order."""
    times = {}
    for t, item in enumerate(sequence, start=1):
        if item != 0:
            times.setdefault(item, []).append(t)
    return times


def infer_num_items(sequence) -> int:
    return max([1, *sequence])


def random_sequence(rng, num_items: int, length: int, idle_prob: float = 0.25) -> list[int]:
    """Draw a trace: each slot idles with ``idle_prob``, else a uniform item."""
    return [
        0 if rng.random() < idle_prob else rng.randint(1, num_items)
        for _ in range(length)
    ]


def draw_instance(rng, max_length=50, max_cache=4, max_delay=8, idle_prob=0.25):
    """Draw a random (cache_size, delay, num_items, sequence) instance."""
    k = rng.randint(1, max_cache)
    delay = rng.randint(1, max_delay)
    n = k + rng.randint(1, 4)
    sequence = random_sequence(rng, n, rng.randint(1, max_length), idle_prob)
    return k, delay, n, sequence
