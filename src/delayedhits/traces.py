"""Trace files: one nonnegative integer per line, 0 meaning an idle slot.

Files are read a chunk of lines at a time; lines end at universal
newlines (LF, CRLF or CR), after a UTF-8 byte-order mark if the file
opens with one. Blank lines and '#' comments are ignored. When no
universe size is given it is inferred as the largest item in the trace
(minimum 1 so parameters stay valid for all-idle traces).
"""

from __future__ import annotations

import itertools


class TraceError(Exception):
    """The trace file cannot be read or fails validation."""


# lines per chunk that parse_trace converts in one map(int, ...) pass, and
# that write_trace formats in one %-formatting
_PARSE_CHUNK = 4096


def parse_trace(lines) -> list[int]:
    """The requests on the text ``lines``, converted a chunk at a time.

    A chunk of bare nonnegative numbers, the common case, is converted by
    one ``map(int, ...)`` (int() itself skips whitespace). A chunk that
    holds anything else, a comment, a blank line, a non-integer or a
    negative value, goes through the per-line rule instead, which skips
    what it may and names the first bad line.
    """
    items = []
    lines = iter(lines)
    lineno = 0
    while chunk := list(itertools.islice(lines, _PARSE_CHUNK)):
        try:
            values = list(map(int, chunk))
        except ValueError:
            values = None
        if values is None or min(values) < 0:
            values = _parse_lines(chunk, lineno)
        items += values
        lineno += len(chunk)
    return items


def _parse_lines(lines, lineno) -> list[int]:
    """The per-line rule; ``lineno`` is the number of the line before the first."""
    items = []
    for lineno, raw in enumerate(lines, start=lineno + 1):
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
        # utf-8-sig drops a leading byte-order mark, which some editors write
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_trace(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from None


def write_trace(path, sequence) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for start in range(0, len(sequence), _PARSE_CHUNK):
                part = tuple(sequence[start:start + _PARSE_CHUNK])
                fh.write("%d\n" * len(part) % part)
    except OSError as exc:
        raise TraceError(f"cannot write trace {path}: {exc}") from None


def request_times(sequence) -> dict[int, list[int]]:
    """Each requested item's request times (1-based), in ascending order."""
    times = {}
    for t, item in enumerate(sequence, start=1):
        if item != 0:
            times.setdefault(item, []).append(t)
    return times


def infer_num_items(sequence) -> int:
    """The largest item requested, and at least 1; copies nothing."""
    return max(1, max(sequence, default=1))


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
