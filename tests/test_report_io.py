"""The CLI's I/O layer against its references: the chunked report writer
against ``json.dumps(indent=2, sort_keys=True)``, the trace parser's
int() fast path against the plain comment-and-strip rule, and the sliced
trace writer against one line per item."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayedhits import cli
from delayedhits.cli import _INT_SLICE, _json_chunks
from delayedhits.traces import (
    _PARSE_CHUNK,
    TraceError,
    infer_num_items,
    parse_trace,
    read_trace,
    write_trace,
)

from conftest import traced_peak


def reference_dump(value):
    return json.dumps(value, indent=2, sort_keys=True)


def chunked_dump(value):
    return "".join(_json_chunks(value))


def signed_ints(length):
    # mixed signs and widths, so every slice spells many lengths of number
    return [(-1) ** i * i * 7919 for i in range(length)]


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.text(),
    st.sampled_from(['", "', "na\u00efve", "\u65e5\u672c", " ", "\\", '"', "\x00"]),
)
# all-int lists take the joined path; a bool or None sends a list to
# json.dumps whole
int_lists = st.lists(
    st.one_of(st.integers(), st.integers(min_value=-(10**30), max_value=10**30))
)
mixed_int_lists = st.lists(st.one_of(st.integers(), st.booleans(), st.none()))
values = st.recursive(
    st.one_of(scalars, int_lists, mixed_int_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_json_dumps(value):
    assert chunked_dump(value) == reference_dump(value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[]],
        {"a": {}},
        {"b": [], "a": [{}]},
        [True, False],
        [1, True, 2],
        [0, None, 3],
        [-(2**70), 2**70, 0],
        {"z": 1, "a": 2, "\u00e9": 3, "A": 4, "": 5},
        {"x": [{"kind": "burst", "item": 3}, {"kind": "idle", "item": None}]},
        {"nan": float("nan"), "inf": [float("inf"), -0.0, 1e300]},
        {1: "int key", 2: [True]},
        {None: 1},
        {True: 1, False: 0},
        {1.5: 2, 2: 3},
        # all-int lists at the writer's slice boundaries, top level and nested
        signed_ints(_INT_SLICE - 1),
        signed_ints(_INT_SLICE),
        tuple(signed_ints(_INT_SLICE + 1)),
        signed_ints(2 * _INT_SLICE + 1),
        {"a": [signed_ints(_INT_SLICE + 1), []], "b": signed_ints(2 * _INT_SLICE)},
        # json-formatted values below the top level, next to a fast-path vector
        {"a": {1: [2, 3]}, "b": [1, 2]},
        {"s": [{"t": "x\ny"}, [1, [2]]], "v": [5]},
        {"e": {"f": [], "g": {}}, "h": [0]},
    ],
)
def test_writer_matches_json_dumps_on_edge_values(value):
    got, want = chunked_dump(value), reference_dump(value)
    if got != want:
        # compared here, not in an assert: pytest's diff of two strings of
        # 100 kB and more runs for minutes
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        window = slice(max(at - 40, 0), at + 40)
        pytest.fail(
            f"lengths {len(got)} and {len(want)}, first difference at {at}:\n"
            f"  writer:     {got[window]!r}\n  json.dumps: {want[window]!r}"
        )


def test_writer_memory_is_bounded_by_a_slice():
    # one long vector, written chunk by chunk as _emit does: the writer
    # holds one slice's text at a time, not a str per item plus the join
    vector = [i * 7919 % 10**6 for i in range(200_000)]
    written, peak = traced_peak(
        lambda: sum(len(chunk) for chunk in _json_chunks({"v": vector})))
    assert written == len(reference_dump({"v": vector}))
    assert peak < 1_000_000, f"writer peaked at {peak} bytes for {written} written"


def test_writer_refuses_an_int_over_the_digit_limit_as_json_does():
    # both spell an int as int.__repr__ does, which refuses one longer than
    # the interpreter's limit on int-to-str digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter sets no limit on int-to-str digits")
    value = {"v": [1, 10**limit]}
    with pytest.raises(ValueError):
        reference_dump(value)
    with pytest.raises(ValueError):
        chunked_dump(value)


@pytest.mark.parametrize(
    "value",
    [
        {"a": object()},
        [1, {2, 3}],
        {"ratio": Fraction(1, 2)},
        {(1, 2): 0},
        {"a": 1, 2: 0},
    ],
    ids=["object", "set", "fraction", "tuple-key", "mixed-keys"],
)
def test_unencodable_value_raises_type_error(value):
    with pytest.raises(TypeError):
        reference_dump(value)
    with pytest.raises(TypeError):
        chunked_dump(value)


def test_unencodable_report_raises_type_error_from_main(monkeypatch):
    def bad_results(args):
        return cli._params_dict(), {"ratio": Fraction(1, 3)}, cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_check", bad_results)
    with pytest.raises(TypeError):
        cli.main(["check"])


def reference_parse(lines):
    """The trace rule without the int() fast path."""
    items = []
    for lineno, raw in enumerate(lines, start=1):
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


def parse_outcome(parse, lines):
    try:
        return parse(lines)
    except TraceError as exc:
        return f"TraceError: {exc}"


# digits weighted up so that most drawn lines parse; U+0663 is an
# Arabic-Indic three, which int() accepts
line_chars = st.sampled_from(
    list("0123456789" * 3)
    + list("#+-_ \t\r\f\n\v")
    + ["\u2028", "\u00a0", "\u0663", "x"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(line_chars, max_size=8), max_size=12))
def test_parse_trace_matches_reference_rule(lines):
    assert parse_outcome(parse_trace, lines) == parse_outcome(reference_parse, lines)


@pytest.mark.parametrize(
    "lines,expected",
    [
        (["3\n", " 4 \n", "+5\n", "1_0\n", "\t6\r\n", " 7 "], [3, 4, 5, 10, 6, 7]),
        (["# c\n", "\n", "8 # note\n", "#9\n"], [8]),
        (["1\n", "-2\n"], "TraceError: line 2: requests must be nonnegative"),
        (["1\n", "\n", " x1 # y\n"], "TraceError: line 3: 'x1' is not an integer"),
        (["-\n"], "TraceError: line 1: '-' is not an integer"),
    ],
)
def test_parse_trace_pinned_lines(lines, expected):
    assert parse_outcome(parse_trace, lines) == expected
    assert parse_outcome(reference_parse, lines) == expected


def chunk_boundary_lines(special, at):
    """Three chunks and a bit of bare numbers with ``special`` at each
    0-based index in ``at``."""
    lines = [f"{i % 97}\n" for i in range(3 * _PARSE_CHUNK + 5)]
    for pos in at:
        lines[pos] = special
    return lines


BOUNDARY_SIDES = {
    "last-of-chunk": [_PARSE_CHUNK - 1],
    "first-of-chunk": [_PARSE_CHUNK],
    "both-sides": [_PARSE_CHUNK - 1, _PARSE_CHUNK],
    "second-boundary": [2 * _PARSE_CHUNK],
    "last-line": [3 * _PARSE_CHUNK + 4],
}


@pytest.mark.parametrize("side", sorted(BOUNDARY_SIDES))
@pytest.mark.parametrize(
    "special",
    ["# note\n", "\n", "  \r\n", "7 # trailing\n", "x1\n", "-3\n", "1.5\n"],
    ids=["comment", "blank", "space", "numbered-comment", "non-integer",
         "negative", "float"],
)
def test_parse_trace_at_chunk_boundaries(special, side):
    lines = chunk_boundary_lines(special, BOUNDARY_SIDES[side])
    expected = parse_outcome(reference_parse, lines)
    assert parse_outcome(parse_trace, lines) == expected
    assert parse_outcome(parse_trace, iter(lines)) == expected


def test_parse_trace_names_the_first_bad_line_across_chunks():
    # a comment-only first chunk, then a negative in the next chunk and a
    # non-integer in the one after: the negative's line is reported
    lines = chunk_boundary_lines("3\n", [])
    lines[:_PARSE_CHUNK] = ["# header\n"] * _PARSE_CHUNK
    lines[_PARSE_CHUNK + 7] = "-1\n"
    lines[2 * _PARSE_CHUNK] = "oops\n"
    expected = f"TraceError: line {_PARSE_CHUNK + 8}: requests must be nonnegative"
    assert parse_outcome(parse_trace, lines) == expected
    assert parse_outcome(reference_parse, lines) == expected


@pytest.mark.parametrize(
    "sequence,expected",
    [([], 1), ([0, 0, 0], 1), ([3, 0, 7, 2, 7, 0], 7)],
    ids=["empty", "all-idle", "largest-7"],
)
def test_infer_num_items(sequence, expected):
    # the universe -n defaults to when a trace is given without it
    assert infer_num_items(sequence) == expected


@pytest.mark.parametrize(
    "sequence",
    [[], [0, 0, 0], tuple(i * 7919 % 10**9 for i in range(2 * _PARSE_CHUNK + 3))],
    ids=["empty", "all-idle", "across-slices"],
)
def test_write_trace_writes_one_line_per_item(tmp_path, sequence):
    path = tmp_path / "t.txt"
    write_trace(path, sequence)
    assert path.read_bytes() == "".join(f"{i}\n" for i in sequence).encode()


def test_read_trace_skips_a_byte_order_mark(tmp_path):
    bare = tmp_path / "bare.txt"
    write_trace(bare, [3, 0, 12, 3])
    marked = tmp_path / "bom.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + bare.read_bytes())
    assert read_trace(marked) == read_trace(bare) == [3, 0, 12, 3]
