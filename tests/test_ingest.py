import pytest

from holdscan.corpus import (
    Corpus,
    attach_holds,
    check_transcripts,
    ingest_holds,
    ingest_transcripts,
    validate_transcripts,
    write_holds,
    write_transcripts,
)
from holdscan.errors import (
    DuplicateTurnIndex,
    MalformedRow,
    MissingColumn,
    NonMonotonicTimestamps,
    UnknownCall,
)

HEADER = "call_id,turn_index,channel,start_ms,end_ms,text,label\n"


def write_csv(tmp_path, body, name="transcripts.csv", header=HEADER):
    path = tmp_path / name
    path.write_text(header + body, encoding="utf-8")
    return path


def test_two_calls_pass_through(tmp_path):
    path = write_csv(
        tmp_path,
        "a,0,agent,0,1000,hello,0\n"
        "a,1,client,1500,2500,hi,0\n"
        "b,0,agent,0,900,good morning,0\n"
        "b,1,client,1000,1800,hello,0\n",
    )
    corpus = ingest_transcripts(path)
    assert len(corpus.calls) == 2
    assert corpus.n_turns() == 4
    assert corpus.label_counts() == {0: 4, 1: 0, 2: 0}
    assert corpus.provenance == "ingested"


def test_end_before_start_is_malformed(tmp_path):
    path = write_csv(tmp_path, "a,0,agent,2000,1000,hello,0\n")
    with pytest.raises(MalformedRow) as err:
        ingest_transcripts(path)
    assert err.value.line_no == 2


def test_header_only_gives_empty_corpus(tmp_path):
    corpus = ingest_transcripts(write_csv(tmp_path, ""))
    assert isinstance(corpus, Corpus)
    assert len(corpus.calls) == 0


def test_missing_column(tmp_path):
    path = write_csv(tmp_path, "a,0,0,hello\n", header="call_id,turn_index,start_ms,text\n")
    with pytest.raises(MissingColumn) as err:
        ingest_transcripts(path)
    assert "end_ms" in err.value.columns


def test_duplicate_turn_index(tmp_path):
    path = write_csv(tmp_path, "a,0,agent,0,1000,x,0\na,0,agent,2000,3000,y,0\n")
    with pytest.raises(DuplicateTurnIndex):
        ingest_transcripts(path)


def test_non_monotonic_timestamps(tmp_path):
    path = write_csv(tmp_path, "a,0,agent,5000,6000,x,0\na,1,agent,1000,2000,y,0\n")
    with pytest.raises(NonMonotonicTimestamps):
        ingest_transcripts(path)


def test_rows_reordered_by_turn_index(tmp_path):
    path = write_csv(tmp_path, "a,1,agent,2000,3000,second,0\na,0,agent,0,1000,first,0\n")
    corpus = ingest_transcripts(path)
    assert [t.text for t in corpus.calls[0].turns] == ["first", "second"]


def test_optional_channel_and_label(tmp_path):
    path = write_csv(
        tmp_path,
        "a,0,0,1000,hello\n",
        header="call_id,turn_index,start_ms,end_ms,text\n",
    )
    corpus = ingest_transcripts(path)
    turn = corpus.calls[0].turns[0]
    assert turn.channel == "unknown"
    assert turn.label is None


@pytest.mark.parametrize("cell", ["9223372036854775808", "-9223372036854775809"])
def test_integer_outside_int64_is_malformed(tmp_path, cell):
    """The turn table holds int64 columns, so a wider integer is a bad row."""
    path = write_csv(tmp_path, f"a,0,agent,0,1000,x,0\na,1,agent,{cell},{cell},y,0\n")
    with pytest.raises(MalformedRow, match="^line 3: integer field outside the 64-bit range$"):
        ingest_transcripts(path)
    assert [d.line_no for d in validate_transcripts(path)] == [3]


def test_bad_label_is_malformed(tmp_path):
    path = write_csv(tmp_path, "a,0,agent,0,1000,x,7\n")
    with pytest.raises(MalformedRow):
        ingest_transcripts(path)


def test_comment_lines_skipped(tmp_path):
    path = write_csv(tmp_path, "# comment row\na,0,agent,0,1000,x,0\n")
    assert ingest_transcripts(path).n_turns() == 1


def test_roundtrip_transcripts(tmp_path):
    path = write_csv(
        tmp_path,
        "a,0,agent,0,1000,hello world,1\n"
        "a,2,client,1500,2500,ok then,0\n"
        "b,0,unknown,10,900,тест,2\n",
    )
    first = ingest_transcripts(path)
    out = tmp_path / "again.csv"
    write_transcripts(first, out, header_comment="roundtrip check")
    second = ingest_transcripts(out)
    assert first == second


def test_roundtrip_holds(tmp_path):
    tpath = write_csv(tmp_path, "a,0,agent,0,1000,x,0\nb,0,agent,0,1000,y,0\n")
    hpath = tmp_path / "holds.csv"
    hpath.write_text("call_id,hold_start_ms,hold_end_ms\na,5000,20000\na,30000,40000\n")
    corpus = attach_holds(ingest_transcripts(tpath), ingest_holds(hpath))
    assert len(corpus.call("a").holds) == 2
    out = tmp_path / "holds2.csv"
    write_holds(corpus, out)
    again = attach_holds(ingest_transcripts(tpath), ingest_holds(out))
    assert corpus == again


def test_holds_overlap_rejected(tmp_path):
    hpath = tmp_path / "holds.csv"
    hpath.write_text("call_id,hold_start_ms,hold_end_ms\na,5000,20000\na,10000,40000\n")
    with pytest.raises(MalformedRow) as err:
        ingest_holds(hpath)
    assert (err.value.line_no, err.value.reason) == (3, "call 'a': overlapping holds")


def test_holds_overlap_names_the_later_starting_row(tmp_path):
    """Rows out of start order: the row reported is the one that starts
    inside the hold before it in start order, not the later row in the file."""
    hpath = tmp_path / "holds.csv"
    hpath.write_text("call_id,hold_start_ms,hold_end_ms\n"
                     "b,0,100\n"          # line 2
                     "a,60000,70000\n"    # line 3: starts inside line 6's hold
                     "a,0,1000\n"         # line 4
                     "# comment\n"        # line 5
                     "a,50000,65000\n")   # line 6
    with pytest.raises(MalformedRow) as err:
        ingest_holds(hpath)
    assert str(err.value) == "line 3: call 'a': overlapping holds"


def test_attach_holds_unknown_call(tmp_path):
    tpath = write_csv(tmp_path, "a,0,agent,0,1000,x,0\n")
    with pytest.raises(UnknownCall):
        attach_holds(ingest_transcripts(tpath), {"zz": ()})


def test_validate_collects_multiple_diagnostics(tmp_path):
    path = write_csv(
        tmp_path,
        "a,0,agent,0,1000,ok,0\n"
        "a,1,agent,2000,1500,bad interval,0\n"
        "a,2,agent,3000,4000,ok,9\n",
    )
    diagnostics = validate_transcripts(path)
    assert [d.line_no for d in diagnostics] == [3, 4]


TWO_BAD_CALLS = (
    "a,0,agent,0,10,x,0\n"
    "a,1,agent,20,30,x,0\n"
    "a,1,agent,40,50,x,0\n"
    "b,0,client,0,10,x,0\n"
    "b,1,client,30,40,x,0\n"
    "b,2,client,20,25,x,0\n"
)


def test_validate_names_each_bad_call_at_its_row(tmp_path):
    path = write_csv(tmp_path, TWO_BAD_CALLS)
    assert [str(d) for d in validate_transcripts(path)] == [
        "line 4: call 'a': duplicate turn_index 1",
        "line 7: call 'b': start_ms decreases along turn_index order",
    ]
    with pytest.raises(DuplicateTurnIndex, match="call 'a'"):
        ingest_transcripts(path)


def test_validate_finds_the_breaking_row_in_turn_index_order(tmp_path):
    """Rows out of file order: the repeat reported is the later row, and the
    decreasing start is the row that follows its predecessor in turn_index order."""
    path = write_csv(
        tmp_path,
        "a,1,agent,40,50,x,0\n"    # line 2
        "a,0,agent,0,10,x,0\n"     # line 3
        "a,1,agent,20,30,x,0\n"    # line 4: repeats line 2's index
        "b,2,client,20,25,x,0\n"   # line 5: starts before b's turn 1
        "b,0,client,0,10,x,0\n"    # line 6
        "b,1,client,30,40,x,0\n"   # line 7
        "c,0,agent,0,1,x,0\n"
        "c,1,agent,5,6,x,0\n",
    )
    assert [d.line_no for d in validate_transcripts(path)] == [4, 5]


def test_validate_lists_bad_rows_before_bad_calls(tmp_path):
    path = write_csv(tmp_path, TWO_BAD_CALLS + "c,0,agent,9,1,x,0\n")
    assert [d.line_no for d in validate_transcripts(path)] == [8, 4, 7]
    assert check_transcripts(path)[0] is None


def test_validate_clean_file(tmp_path):
    path = write_csv(tmp_path, "a,0,agent,0,1000,ok,0\n")
    assert validate_transcripts(path) == []
    assert check_transcripts(path) == (ingest_transcripts(path), [])


def test_byte_order_mark_is_accepted(tmp_path):
    # Spreadsheet exports often start with a UTF-8 byte-order mark.
    body = "a,0,agent,0,1000,hello,0\nb,0,client,0,900,тест,2\n"
    plain = write_csv(tmp_path, body)
    marked = write_csv(tmp_path, body, name="marked.csv", header="\ufeff" + HEADER)
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert ingest_transcripts(marked) == ingest_transcripts(plain)
    assert validate_transcripts(marked) == []


def test_holds_byte_order_mark_is_accepted(tmp_path):
    body = "call_id,hold_start_ms,hold_end_ms\na,5000,20000\nb,30000,40000\n"
    plain, marked = tmp_path / "holds.csv", tmp_path / "marked.csv"
    plain.write_text(body, encoding="utf-8")
    marked.write_text(body, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert ingest_holds(marked) == ingest_holds(plain)
