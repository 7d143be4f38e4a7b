"""The columnar transcript and predictions readers against the row-by-row
readers they replaced (tests/oracles.py), on generated valid and malformed
CSVs: the same corpus, the same probability bits, the same validation list,
or the same error class, message and line number."""

import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from holdscan.classifier import load_external_proba
from holdscan.corpus import ingest_transcripts, validate_transcripts

from oracles import (
    ingest_transcripts_by_row,
    load_external_proba_by_row,
    validate_transcripts_by_row,
)

SETTINGS = settings(max_examples=300, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

TRANSCRIPT_HEADERS = [
    *[["call_id", "turn_index", "channel", "start_ms", "end_ms", "text", "label"]] * 4,
    ["call_id", "turn_index", "start_ms", "end_ms", "text"],               # no optional column
    ["text", "label", "end_ms", "start_ms", "turn_index", "call_id"],      # no channel, reordered
    ["call_id", "turn_index", "channel", "start_ms", "end_ms", "text", "label", "note"],
    ["call_id", "turn_index", "start_ms", "text"],                          # lacks end_ms
]
# (column, cell): cells int() and the channel and label rules accept in an
# unusual spelling, and cells they reject, integers outside int64 among them.
ODD_CELLS = [
    ("turn_index", "1_000"), ("turn_index", " 7 "), ("turn_index", "+3"), ("turn_index", "-1"),
    ("turn_index", "x"), ("turn_index", "1.0"), ("turn_index", "0x10"), ("turn_index", "٣"),
    ("start_ms", ""), ("start_ms", "1e3"), ("start_ms", "-5"), ("end_ms", "0"),
    ("channel", " agent "), ("channel", "robot"), ("channel", "Agent"),
    ("label", " 1 "), ("label", "3"), ("label", "-1"), ("label", "x"), ("label", "1_0"),
    ("label", "١"), ("call_id", " a"), ("call_id", "#c"), ("call_id", "#c,d"),
    ("call_id", "#c\r\nd"),  # quoted by csv.writer, so data: one line, and two
    ("turn_index", "-9223372036854775809"), ("start_ms", "9223372036854775808"),
    ("end_ms", "9223372036854775807"), ("label", "99999999999999999999"),
]
TEXTS = st.text(alphabet=st.sampled_from('ab ,"\n#\ré'), max_size=8)


@st.composite
def transcript_row(draw):
    turn = draw(st.integers(0, 60))
    # A jitter over 10 can start a turn before a turn that precedes it.
    start = 10 * turn + draw(st.integers(0, 25))
    if draw(st.integers(0, 9)) == 0:
        start += 1000  # after every later turn of its call
    row = {
        "call_id": draw(st.sampled_from(["a", "b", "c"])),
        "turn_index": str(turn),
        "channel": draw(st.sampled_from(["agent", "client", "unknown", ""])),
        "start_ms": str(start),
        "end_ms": str(start + draw(st.integers(0, 30))),
        "text": draw(TEXTS),
        "label": draw(st.sampled_from(["0", "1", "2", ""])),
        "note": "n",
    }
    if draw(st.integers(0, 9)) == 0:
        column, cell = draw(st.sampled_from(ODD_CELLS))
        row[column] = cell
    return row


def _csv_line(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


@st.composite
def csv_file(draw, header_choices, row_strategy):
    """CSV text: an optional BOM, comment and blank lines anywhere, the
    header, and rows that may come short or carry an extra cell."""
    header = draw(st.sampled_from(header_choices))
    lines = [_csv_line(header)]
    for row in draw(st.lists(row_strategy, max_size=12)):
        cells = [row[name] for name in header]
        shape = draw(st.sampled_from(["full"] * 18 + ["short", "extra"]))
        if shape == "short":
            cells = cells[:draw(st.integers(1, len(cells) - 1))]
        elif shape == "extra":
            cells.append("spare")
        lines.append(_csv_line(cells))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ["# comment\r\n", "\r\n", "  # indented, comment\n", "\n",
             '# a comment record,"over\r\ntwo lines"\n',
             '# a comment record that runs to the end,"unclosed\n'])))
    return ("\ufeff" if draw(st.booleans()) else "") + "".join(lines)


def _outcome(read, path):
    try:
        return "value", read(path)
    except Exception as exc:  # noqa: BLE001  (the class is what is compared)
        return "error", (type(exc), str(exc), getattr(exc, "line_no", None))


def _write(tmp_path, text):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return path


@SETTINGS
@given(text=csv_file(TRANSCRIPT_HEADERS, transcript_row()))
def test_ingest_matches_the_row_by_row_reader(tmp_path, text):
    path = _write(tmp_path, text)
    kind, want = _outcome(ingest_transcripts_by_row, path)
    got_kind, got = _outcome(ingest_transcripts, path)
    assert got_kind == kind, (got, want)
    if kind == "error":
        assert got == want
        return
    assert got == want
    assert got.calls == want.calls
    assert list(got.iter_turns()) == list(want.iter_turns())
    assert [call.holds for call in got.calls] == [call.holds for call in want.calls]


@SETTINGS
@given(text=csv_file(TRANSCRIPT_HEADERS, transcript_row()))
def test_validate_matches_the_row_by_row_reader(tmp_path, text):
    path = _write(tmp_path, text)
    got = [(d.line_no, d.reason) for d in validate_transcripts(path)]
    assert got == validate_transcripts_by_row(path)


def _odd_file(tmp_path, header, good, odd):
    """A CSV of header and the rows good and odd."""
    return _write(tmp_path, "".join(_csv_line([row[name] for name in header])
                                    for row in ({name: name for name in header}, good, odd)))


@pytest.mark.parametrize("column, cell", ODD_CELLS)
def test_each_odd_transcript_cell_matches_the_row_by_row_reader(tmp_path, column, cell):
    """Every odd cell once, in one row, whatever the generated files hit."""
    good = {"call_id": "a", "turn_index": "0", "channel": "agent", "start_ms": "0",
            "end_ms": "10", "text": "t", "label": "0"}
    odd = {**good, "turn_index": "1", "start_ms": "20", "end_ms": "30", column: cell}
    path = _odd_file(tmp_path, TRANSCRIPT_HEADERS[0], good, odd)
    assert _outcome(ingest_transcripts, path) == _outcome(ingest_transcripts_by_row, path)
    got = [(d.line_no, d.reason) for d in validate_transcripts(path)]
    assert got == validate_transcripts_by_row(path)


PROBA_HEADERS = [
    *[["call_id", "turn_index", "p0", "p1", "p2"]] * 3,
    ["p2", "p1", "p0", "turn_index", "call_id", "note"],
    ["call_id", "turn_index", "p0", "p1"],
]
ODD_PROBA_CELLS = [
    ("p0", "nan"), ("p1", "-0.0"), ("p2", "-0.1"), ("p0", "x"), ("p1", ""), ("p2", "inf"),
    ("p0", "1_0"), ("p1", " 0.5 "), ("turn_index", " 3 "), ("turn_index", "y"),
    ("call_id", "#c"), ("call_id", "#c,d"), ("call_id", "#c\nd"),
    ("turn_index", "99999999999999999999"), ("turn_index", "-9223372036854775808"),
]


@st.composite
def proba_row(draw):
    p = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
    p = p / p.sum() if p.sum() > 0 else np.array([1.0, 0.0, 0.0])
    # Off the unit sum by nothing, by a renormalized amount, or by a rejected one.
    p[draw(st.integers(0, 2))] += draw(st.sampled_from([0.0] * 12 + [3e-10, 4e-7, -4e-7, 2e-6]))
    row = {
        "call_id": draw(st.sampled_from(["a", "b", "c"])),
        "turn_index": str(draw(st.integers(0, 60))),
        "p0": repr(float(p[0])), "p1": repr(float(p[1])), "p2": repr(float(p[2])),
        "note": "n",
    }
    if draw(st.integers(0, 9)) == 0:
        column, cell = draw(st.sampled_from(ODD_PROBA_CELLS))
        row[column] = cell
    return row


@SETTINGS
@given(text=csv_file(PROBA_HEADERS, proba_row()))
def test_load_external_proba_matches_the_row_by_row_reader(tmp_path, text):
    path = _write(tmp_path, text)
    kind, want = _outcome(load_external_proba_by_row, path)
    got_kind, got = _outcome(load_external_proba, path)
    assert got_kind == kind, (got, want)
    if kind == "error":
        assert got == want
        return
    assert list(got) == list(want)
    got_bits = np.array([tuple(got[key]) for key in got], dtype=np.float64).reshape(-1, 3)
    want_bits = np.array([tuple(want[key]) for key in want], dtype=np.float64).reshape(-1, 3)
    assert got_bits.tobytes() == want_bits.tobytes()


@pytest.mark.parametrize("column, cell", ODD_PROBA_CELLS)
def test_each_odd_proba_cell_matches_the_row_by_row_reader(tmp_path, column, cell):
    good = {"call_id": "a", "turn_index": "0", "p0": "0.5", "p1": "0.25", "p2": "0.25"}
    path = _odd_file(tmp_path, PROBA_HEADERS[0], good, {**good, "turn_index": "1", column: cell})
    kind, want = _outcome(load_external_proba_by_row, path)
    got_kind, got = _outcome(load_external_proba, path)
    assert (got_kind, got if kind == "error" else list(got)) == \
        (kind, want if kind == "error" else list(want))
