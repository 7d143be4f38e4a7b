"""The rules every input CSV shares, and the exact bytes every writer emits.

Transcripts, holds and predictions are read by one reader and written by
one writer, so each rule below is checked on all three formats.
"""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from holdscan.classifier import load_external_proba, write_proba
from holdscan.corpus import (
    Call,
    Corpus,
    HoldInterval,
    ingest_holds,
    ingest_transcripts,
    validate_transcripts,
    write_holds,
    write_transcripts,
)
from holdscan.corpus.model import CHANNELS
from holdscan.errors import MalformedRow

from conftest import make_turn
from oracles import write_proba_by_csv_writer

# reader, header, one good row, the width of the columns the reader uses
FORMATS = {
    "transcripts": (ingest_transcripts, "call_id,turn_index,channel,start_ms,end_ms,text,label",
                    "a,0,agent,0,1000,hello,0", 7),
    "holds": (ingest_holds, "call_id,hold_start_ms,hold_end_ms", "a,5000,20000", 3),
    "predictions": (load_external_proba, "call_id,turn_index,p0,p1,p2", "a,0,0.7,0.2,0.1", 5),
}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("fmt", FORMATS)
def test_blank_lines_before_the_header_are_skipped(fmt, tmp_path):
    read, header, row, _ = FORMATS[fmt]
    plain = write(tmp_path / "plain.csv", f"{header}\n{row}\n")
    blank = write(tmp_path / "blank.csv", f"\n\n{header}\n\n{row}\n\n")
    assert read(blank) == read(plain)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_header_column_the_rows_leave_out_is_ignored(fmt, tmp_path):
    read, header, row, _ = FORMATS[fmt]
    plain = write(tmp_path / "plain.csv", f"{header}\n{row}\n")
    wider = write(tmp_path / "wider.csv", f"{header},note\n{row}\n")
    assert read(wider) == read(plain)


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_short_row_names_its_line_and_the_width(fmt, tmp_path):
    read, header, row, width = FORMATS[fmt]
    short = row.rpartition(",")[0]
    path = write(tmp_path / "short.csv", f"# made by hand\n{header}\n{row}\n\n{short}\n")
    with pytest.raises(MalformedRow) as err:
        read(path)
    assert err.value.line_no == 5
    assert err.value.reason == f"expected at least {width} cells, got {width - 1}"


def test_validate_lists_a_short_row_and_goes_on(tmp_path):
    _, header, row, _ = FORMATS["transcripts"]
    path = write(tmp_path / "t.csv", f"{header}\na,0,agent\na,1,robot,0,1000,x,0\n{row}\n")
    assert [(d.line_no, d.reason) for d in validate_transcripts(path)] == [
        (2, "expected at least 7 cells, got 3"),
        (3, f"channel must be one of {CHANNELS}, got 'robot'"),
    ]


def test_a_bad_channel_is_a_malformed_row(tmp_path):
    _, header, row, _ = FORMATS["transcripts"]
    path = write(tmp_path / "t.csv", f"{header}\n{row}\na,1,robot,2000,3000,x,0\n")
    with pytest.raises(MalformedRow) as err:
        ingest_transcripts(path)
    assert err.value.line_no == 3
    assert err.value.reason == f"channel must be one of {CHANNELS}, got 'robot'"


# --- writers -----------------------------------------------------------------


def _corpus():
    turns = (make_turn("a", 0, label=1, text='say "hi", then wait', channel="agent"),
             make_turn("a", 1, label=None, text="тест", channel="unknown"))
    return Corpus(calls=(Call("a", turns, holds=(HoldInterval(5000, 20000),)),
                         Call("b", (make_turn("b", 0, label=0, channel="client"),))))


def test_write_transcripts_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_transcripts(_corpus(), path, header_comment="stamp")
    assert path.read_bytes() == (
        "# stamp\r\n"
        "call_id,turn_index,channel,start_ms,end_ms,text,label\r\n"
        'a,0,agent,0,3000,"say ""hi"", then wait",1\r\n'
        "a,1,unknown,10000,13000,тест,\r\n"
        "b,0,client,0,3000,hello there,0\r\n"
    ).encode("utf-8")


def test_write_holds_bytes(tmp_path):
    path = tmp_path / "h.csv"
    write_holds(_corpus(), path, header_comment="stamp")
    assert path.read_bytes() == (
        b"# stamp\r\n"
        b"call_id,hold_start_ms,hold_end_ms\r\n"
        b"a,5000,20000\r\n"
    )
    write_holds(_corpus(), path)
    assert path.read_bytes() == b"call_id,hold_start_ms,hold_end_ms\r\na,5000,20000\r\n"


def test_write_proba_bytes(tmp_path):
    path = tmp_path / "p.csv"
    probs = np.array([[0.8, 0.15, 0.05], [1 / 3, 1 / 3, 1 / 3]])
    write_proba(path, [("a", 0), ("b,c", 3)], probs, header_comment="stamp")
    assert path.read_bytes() == (
        b"# stamp\r\n"
        b"call_id,turn_index,p0,p1,p2\r\n"
        b"a,0,0.8,0.15,0.05\r\n"
        b'"b,c",3,0.3333333333333333,0.3333333333333333,0.3333333333333333\r\n'
    )


# --- comments and first cells that start with '#' ----------------------------------


def test_a_quoted_hash_call_id_is_data_and_a_hash_line_a_comment(tmp_path):
    _, header, _, _ = FORMATS["transcripts"]
    path = write(tmp_path / "t.csv", f"{header}\n"
                 "#c1,0,agent,0,10,please hold,1\n"
                 '"#c2",0,agent,0,10,thanks for waiting,2\n'
                 "c3,0,agent,0,10,hello,0\n")
    assert ingest_transcripts(path).table.call_ids == ("#c2", "c3")
    assert validate_transcripts(path) == []


def test_line_numbers_count_comment_records_and_quoted_line_breaks(tmp_path):
    # The quoted text holds a CRLF, a CR and a line that starts with '#':
    # its record is lines 4 to 6, and its '#' line is text. Line 7 is a
    # comment line, so its quote opens no cell, and line 8 is a short row.
    _, header, _, _ = FORMATS["transcripts"]
    text = (f"{header}\r\n"
            "# made by hand\r\n"
            '"#c2",0,agent,0,10,thanks for waiting,2\r\n'
            '"#c2",1,agent,20,30,"one\r\n# two\rthree",2\r\n'
            '  # a comment,"over\r\ntwo lines"\r\n'
            "c3,0,agent,0,10,hello,9\r\n")
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(MalformedRow) as err:
        ingest_transcripts(path)
    assert (err.value.line_no, err.value.reason) == (8, "expected at least 7 cells, got 1")
    assert [d.line_no for d in validate_transcripts(path)] == [8, 9]
    text = text.replace('two lines"\r\n', "").replace(",9\r\n", ",0\r\n")
    path.write_text(text, encoding="utf-8", newline="")
    corpus = ingest_transcripts(path)
    assert corpus.table.call_ids == ("#c2", "c3")
    assert corpus.table.text[1] == "one\r\n# two\rthree"


# A second good row of each format, for files of more than one row.
SECOND_ROWS = {"transcripts": "a,1,client,2000,3000,bye,0", "holds": "b,30000,40000",
               "predictions": "a,1,0.5,0.25,0.25"}


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_comment_line_with_an_open_quote_is_one_line(fmt, tmp_path):
    """The comment's quote opens no cell, so the rows after it are data."""
    read, header, row, _ = FORMATS[fmt]
    body = f"{row}\n{SECOND_ROWS[fmt]}\n"
    commented = write(tmp_path / "commented.csv", f'{header}\n# note,"unclosed\n{body}')
    assert read(commented) == read(write(tmp_path / "plain.csv", f"{header}\n{body}"))
    if fmt == "transcripts":
        assert read(commented).n_turns() == 2
        assert validate_transcripts(commented) == []


@pytest.mark.parametrize("fmt, row", [("holds", "a,5000,99999999999999999999"),
                                      ("holds", "a,-9223372036854775809,20000"),
                                      ("predictions", "a,99999999999999999999,0.5,0.25,0.25")])
def test_an_integer_outside_int64_is_a_malformed_row(fmt, row, tmp_path):
    read, header, good, _ = FORMATS[fmt]
    path = write(tmp_path / "wide.csv", f"{header}\n{good}\n{row}\n")
    with pytest.raises(MalformedRow, match="^line 3: integer field outside the 64-bit range$"):
        read(path)


@pytest.mark.parametrize("read", [ingest_transcripts, validate_transcripts, ingest_holds,
                                  load_external_proba])
@pytest.mark.parametrize("bad", [False, True], ids=["clean", "bad"])
def test_a_reader_opens_its_file_once(read, bad, tmp_path):
    fmt = {ingest_holds: "holds", load_external_proba: "predictions"}.get(read, "transcripts")
    _, header, row, _ = FORMATS[fmt]
    short = f"{row.rpartition(',')[0]}\n" if bad else ""
    path = write(tmp_path / "in.csv", f"{header}\n{row}\n{short}{SECOND_ROWS[fmt]}\n")
    with mock.patch("builtins.open", wraps=open) as opened:
        try:
            read(path)
        except MalformedRow:
            assert bad
    assert opened.call_count == 1


@pytest.mark.parametrize("call_id", ["#a", " #b", "\t#c"])
def test_a_hash_call_id_round_trips_through_every_writer(call_id, tmp_path):
    corpus = Corpus(calls=(Call(call_id, (make_turn(call_id, 0), make_turn(call_id, 1)),
                                holds=(HoldInterval(5000, 20000),)),
                           Call("b", (make_turn("b", 0),))))
    write_transcripts(corpus, tmp_path / "t.csv", header_comment="stamp")
    write_holds(corpus, tmp_path / "h.csv")
    assert ingest_transcripts(tmp_path / "t.csv").table == corpus.table
    assert ingest_holds(tmp_path / "h.csv") == {call_id: (HoldInterval(5000, 20000),)}
    keys = [(call_id, 0), ("b", 0), (call_id, 1)]
    probs = np.array([[0.5, 0.25, 0.25], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    write_proba(tmp_path / "p.csv", keys, probs, header_comment="stamp")
    loaded = load_external_proba(tmp_path / "p.csv")
    assert list(loaded) == keys
    assert loaded.probs.tobytes() == probs.tobytes()


def test_only_a_hash_first_cell_changes_bytes(tmp_path):
    """A first cell that would start a comment line is quoted, alone; a '#'
    further into a row or inside a quoted cell is written as csv.writer writes it."""
    keys = [("#a", 0), (" #b", 1), ('#"c', 2), ("d#", 3)]
    write_proba(tmp_path / "p.csv", keys, np.eye(3)[[0, 1, 2, 0]])
    assert (tmp_path / "p.csv").read_bytes().split(b"\r\n")[1:-1] == [
        b'"#a",0,1.0,0.0,0.0',
        b'" #b",1,0.0,1.0,0.0',
        b'"#""c",2,0.0,0.0,1.0',
        b"d#,3,1.0,0.0,0.0",
    ]
    corpus = Corpus(calls=(Call("#a", (make_turn("#a", 0, text="# not a comment"),)),))
    write_transcripts(corpus, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes().split(b"\r\n")[1] == \
        b'"#a",0,agent,0,3000,# not a comment,0'


# --- the predictions writer against the csv.writer one --------------------------------

# Cells csv.writer must quote, or must not: delimiters, quotes, line breaks,
# spaces, non-ASCII text and a '#' that does not lead. It refuses a NUL
# before Python 3.11, as both writers then do.
TRICKY_CHARS = [",", '"', "\r", "\n", " ", "\t", "#", "a", "é", "漢", "😀", " ", "\x00"]
CALL_IDS = st.text(st.one_of(st.sampled_from(TRICKY_CHARS),
                             st.characters(codec="utf-8")), max_size=6) \
    .filter(lambda s: not s.lstrip().startswith("#"))
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308, 1 - 2 ** -53, 1.0,
                  1 / 3, float("inf"), float("nan")]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(st.one_of(st.sampled_from(["a", "", "b,c"]), CALL_IDS),
                               st.integers(-2 ** 70, 2 ** 70), FLOATS, FLOATS, FLOATS),
                     max_size=8),
       header_comment=st.one_of(st.none(), st.text(st.characters(codec="utf-8"),
                                                   max_size=12)))
def test_write_proba_matches_the_csv_writer(tmp_path, rows, header_comment):
    keys = [(call_id, index) for call_id, index, *_ in rows]
    probs = np.array([row[2:] for row in rows]).reshape(-1, 3)

    def written(write, path):
        try:
            write(path, keys, probs, header_comment)
        except csv.Error as exc:
            return "error", str(exc)
        return "bytes", path.read_bytes()

    assert written(write_proba, tmp_path / "got.csv") == \
        written(write_proba_by_csv_writer, tmp_path / "want.csv")
