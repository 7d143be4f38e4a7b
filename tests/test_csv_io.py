"""The rules every input CSV shares, and the exact bytes every writer emits.

Transcripts, holds and predictions are read by one reader and written by
one writer, so each rule below is checked on all three formats.
"""

import numpy as np
import pytest

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
