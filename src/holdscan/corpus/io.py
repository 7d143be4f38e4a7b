"""CSV ingestion and serialization for transcripts and hold logs.

Transcript CSV (UTF-8, header required):
    call_id,turn_index,channel,start_ms,end_ms,text,label
The label column is optional; the channel column is optional and defaults
to "unknown".

Holds CSV:
    call_id,hold_start_ms,hold_end_ms

Every input CSV, the predictions CSV of holdscan.classifier included, is
read by read_csv's rules: UTF-8 with an optional byte-order mark, blank
lines and comments skipped anywhere, the first other line the header. A
comment is a record whose first physical line starts with '#' after
optional whitespace; a row whose quoted first cell starts so is data. A
row needs a cell for each column holdscan reads; extra cells and columns
are ignored, and a shorter row is a MalformedRow with one message in
every format. Every output CSV has write_csv's bytes: csv.writer's, but
for a first cell that would start a comment line, which is quoted.

Transcripts and predictions are read whole into columns (read_columns) and
checked in array passes; read_csv, one row at a time, reads again only a
file that fails them, to raise its first error with its line number.

Fold plan JSON:
    {"k": k, "test_fold": t, "assignment": [[call_id, turn_index, fold], ...]}
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Sequence, TextIO, TypeVar, Union

import numpy as np

from ..errors import DataValidationError, MalformedRow, MissingColumn
from .model import (
    CHANNELS,
    Corpus,
    FoldPlan,
    HoldInterval,
    PhraseTurn,
    TurnTable,
    turn_order_error,
)

PathLike = Union[str, Path]

TRANSCRIPT_COLUMNS = ("call_id", "turn_index", "channel", "start_ms", "end_ms", "text", "label")
REQUIRED_COLUMNS = ("call_id", "turn_index", "start_ms", "end_ms", "text")
OPTIONAL_COLUMNS = ("channel", "label")
HOLD_COLUMNS = ("call_id", "hold_start_ms", "hold_end_ms")

T = TypeVar("T")


def read_csv(
    path: PathLike, columns: Sequence[str], optional: Sequence[str] = ()
) -> Iterator[tuple[int, tuple[str, ...]] | MalformedRow]:
    """Yield (physical line number, cells) for each data row of an input CSV.

    cells is a tuple of the row's values of columns and then of optional,
    in that order; an optional column the header lacks reads as "". A
    row too short to hold every column read is yielded as a MalformedRow
    in place of its pair, so a caller can report it and go on. Raises
    MalformedRow when the file has no header and MissingColumn when the
    header lacks one of columns.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader, rows, positions = _data_rows(fh.readlines(), columns, optional)
        # An optional column the header lacks reads the empty cell appended to each row.
        pad = -1 in positions
        width = max(positions) + 1
        pick = itemgetter(*positions)
        for row in rows:
            if len(row) < width:
                message = f"expected at least {width} cells, got {len(row)}"
                yield MalformedRow(reader.line_num, message)
            else:
                if pad:
                    row.append("")
                yield reader.line_num, pick(row)


def read_columns(
    path: PathLike, columns: Sequence[str], optional: Sequence[str] = ()
) -> Optional[list[Sequence[str]]]:
    """The cells of an input CSV as one sequence per column read, in read_csv's
    order and by its rules, or None when a row is too short (read_csv names it).

    Raises what read_csv raises for the header.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        _, rows, positions = _data_rows(fh.readlines(), columns, optional)
        body = list(rows)
    width = max(positions) + 1
    if min(map(len, body), default=width) < width:
        return None
    return [list(map(itemgetter(p), body)) if p >= 0 else [""] * len(body) for p in positions]


def _data_rows(
    lines: list[str], columns: Sequence[str], optional: Sequence[str]
) -> tuple[Any, Iterator[list[str]], list[int]]:
    """A csv reader over an input CSV's lines, its rows after the header, and
    the header position of each column read, -1 for an optional column it lacks.

    Blank lines and comments are skipped. A comment is a record whose first
    physical line starts with '#' after optional whitespace, so a row whose
    quoted first cell starts with '#' is data.
    """
    reader = csv.reader(lines)
    rows = _uncommented(reader, lines)
    header = next(rows, None)
    if header is None:
        raise MalformedRow(0, "file has no header row")
    missing = [c for c in columns if c not in header]
    if missing:
        raise MissingColumn(missing)
    return reader, rows, [header.index(c) if c in header else -1 for c in (*columns, *optional)]


def _uncommented(reader: Any, lines: list[str]) -> Iterator[list[str]]:
    """The rows of reader, a csv reader over lines, without blank rows and
    comments: records whose first line starts with '#' after optional
    whitespace."""
    start = 0  # the line the next record starts on
    for row in reader:
        if row and not lines[start].lstrip().startswith("#"):
            yield row
        start = reader.line_num


def _starts_comment(text: object) -> bool:
    """Whether text, as a line, would be a comment: a str starting with '#'
    after optional whitespace."""
    return isinstance(text, str) and text.lstrip().startswith("#")


def strict(items: Iterable[T | MalformedRow]) -> Iterator[T]:
    """The items, raising the first MalformedRow among them instead of yielding it."""
    for item in items:
        if isinstance(item, MalformedRow):
            raise item
        yield item


@contextmanager
def open_csv(path: PathLike, columns: Sequence[str],
             header_comment: str | None = None) -> Iterator[TextIO]:
    """An output CSV open for writing, its optional '# header_comment' line and
    its header written, each CRLF-terminated as every line must be."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\r\n")
        csv.writer(fh).writerow(columns)
        yield fh


def write_csv(
    path: PathLike,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    header_comment: str | None = None,
) -> None:
    """Write an optional '# header_comment' line, the header and the rows, each
    line CRLF-terminated. A row is csv.writer's line, except that a first
    cell that would start a comment line is quoted (_csv_line)."""
    with open_csv(path, columns, header_comment) as fh:
        writer = csv.writer(fh)
        for row in rows:
            if row and _starts_comment(row[0]):
                fh.write(_csv_line(row))
            else:
                writer.writerow(row)


def _csv_line(row: Sequence[object]) -> str:
    """row as write_csv writes it: csv.writer's line, with a first cell that
    would start a comment line quoted."""
    buf = io.StringIO()
    csv.writer(buf).writerow(row)
    line = buf.getvalue()
    first = row[0]
    if _starts_comment(first) and not line.startswith('"'):
        # csv.writer left the cell as it is: it holds no quote, delimiter or line break.
        return f'"{first}"{line[len(first):]}'
    return line


def first_cells(values: Iterable[str]) -> dict[str, str]:
    """Each distinct value as write_csv writes it as the first of several cells."""
    return {value: _csv_line((value, ""))[:-3] for value in dict.fromkeys(values)}


_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1
# A channel cell, stripped, to its code in CHANNELS; an empty cell is "unknown".
_CHANNEL_CODE = {channel: i for i, channel in enumerate(CHANNELS)}
_CHANNEL_CODE[""] = _CHANNEL_CODE["unknown"]


def _parse_turn(line_no: int, cells: tuple[str, ...]) -> PhraseTurn:
    call_id, turn_index, start_ms, end_ms, text, channel, raw = cells
    try:
        turn_index = int(turn_index)
        start_ms = int(start_ms)
        end_ms = int(end_ms)
    except ValueError as exc:
        raise MalformedRow(line_no, f"non-integer field ({exc})") from None
    if not all(_INT64_MIN <= v <= _INT64_MAX for v in (turn_index, start_ms, end_ms)):
        raise MalformedRow(line_no, "integer field outside the 64-bit range")
    channel = channel.strip() or "unknown"
    raw = raw.strip()
    label: Optional[int] = None
    if raw != "":
        try:
            label = int(raw)
        except ValueError:
            raise MalformedRow(line_no, f"label must be an integer, got {raw!r}") from None
    try:
        return PhraseTurn(
            call_id=call_id,
            turn_index=turn_index,
            channel=channel,
            start_ms=start_ms,
            end_ms=end_ms,
            text=text,
            label=label,
        )
    except ValueError as exc:
        raise MalformedRow(line_no, str(exc)) from None


def _turn_table(columns: list[Sequence[str]]) -> Optional[TurnTable]:
    """The turn table of a transcript's columns, in array passes, or None
    when a cell does not convert or a turn breaks a rule."""
    call_col, index_col, start_col, end_col, text_col, channel_col, label_col = columns
    n = len(call_col)
    try:
        turn_index = np.fromiter(map(int, index_col), np.int64, n)
        start_ms = np.fromiter(map(int, start_col), np.int64, n)
        end_ms = np.fromiter(map(int, end_col), np.int64, n)
        channel = np.fromiter(map(_CHANNEL_CODE.__getitem__, map(str.strip, channel_col)),
                              np.int8, n)
        raw = list(map(str.strip, label_col))
        label = np.fromiter((int(cell) if cell else -1 for cell in raw), np.int64, n)
    except (ValueError, OverflowError, KeyError):
        return None
    given = np.fromiter(map(bool, raw), bool, n)
    if ((turn_index < 0).any() or (start_ms < 0).any() or (end_ms < start_ms).any()
            or (given & ((label < 0) | (label > 2))).any()):
        return None
    call_ids = tuple(dict.fromkeys(call_col))
    position = {call_id: i for i, call_id in enumerate(call_ids)}
    call_of_row = np.fromiter(map(position.__getitem__, call_col), np.int64, n)
    order = np.lexsort((turn_index, call_of_row))
    turn_index, start_ms = turn_index[order], start_ms[order]
    same_call = call_of_row[order][1:] == call_of_row[order][:-1]
    if (same_call & (turn_index[1:] == turn_index[:-1])).any():
        return None
    if (same_call & (start_ms[1:] < start_ms[:-1])).any():
        return None
    return TurnTable(
        call_ids=call_ids,
        offsets=np.concatenate(([0], np.cumsum(np.bincount(call_of_row, minlength=len(call_ids))))),
        turn_index=turn_index,
        start_ms=start_ms,
        end_ms=end_ms[order],
        channel=channel[order],
        label=label[order],
        text=list(map(text_col.__getitem__, order.tolist())),
    )


def _transcript_errors(path: PathLike) -> Iterator[tuple[int, DataValidationError]]:
    """(line number, error) of every bad row, in file order, then of the
    first turn-order break of each call, in first-seen call order.

    The first of them is what ingest_transcripts raises. Raises what
    read_csv raises for the header.
    """
    by_call: dict[str, list[tuple[int, PhraseTurn]]] = {}
    for row in read_csv(path, REQUIRED_COLUMNS, OPTIONAL_COLUMNS):
        try:
            if isinstance(row, MalformedRow):
                raise row
            turn = _parse_turn(*row)
        except MalformedRow as exc:
            yield exc.line_no, exc
        else:
            by_call.setdefault(turn.call_id, []).append((row[0], turn))
    for rows in by_call.values():
        rows.sort(key=lambda row: row[1].turn_index)  # stable: repeats keep file order
        for (_, prev), (line_no, turn) in zip(rows, rows[1:]):
            error = turn_order_error(prev, turn)
            if error is not None:
                yield line_no, error
                break


def ingest_transcripts(path: PathLike) -> Corpus:
    """Parse a transcript CSV into a Corpus.

    Row order within a call is normalized by turn_index. Raises
    MissingColumn, MalformedRow, DuplicateTurnIndex or
    NonMonotonicTimestamps on the first problem found.

    The file is parsed into columns and checked in array passes; only a
    file that fails them is read again row by row (_transcript_errors), to
    raise its first error with its line number.
    """
    columns = read_columns(path, REQUIRED_COLUMNS, OPTIONAL_COLUMNS)
    table = None if columns is None else _turn_table(columns)
    if table is None:
        for _, error in _transcript_errors(path):
            raise error
        raise AssertionError(f"{path}: the column checks failed on a file without a bad row")
    return Corpus.of_table(table)


def validate_transcripts(path: PathLike) -> list[MalformedRow]:
    """Collect every bad row instead of failing on the first.

    Bad rows come first, in file order, then one MalformedRow per call whose
    turn order breaks, at the first row that breaks it in turn_index order.
    A header-level problem (no header, missing columns) is the only entry,
    at line 1. Returns an empty list when the file would ingest cleanly.
    """
    try:
        return [error if isinstance(error, MalformedRow) else MalformedRow(line_no, str(error))
                for line_no, error in _transcript_errors(path)]
    except (MissingColumn, MalformedRow) as exc:
        return [MalformedRow(1, getattr(exc, "reason", str(exc)))]


def ingest_holds(path: PathLike) -> dict[str, tuple[HoldInterval, ...]]:
    """Parse a holds CSV into per-call sorted hold intervals.

    A hold that starts before the one preceding it in start order ends is
    a MalformedRow at its own line.
    """
    by_call: dict[str, list[tuple[HoldInterval, int]]] = {}
    for line_no, (call_id, start, end) in strict(read_csv(path, HOLD_COLUMNS)):
        try:
            interval = HoldInterval(int(start), int(end))
        except ValueError as exc:
            raise MalformedRow(line_no, str(exc)) from None
        by_call.setdefault(call_id, []).append((interval, line_no))

    result: dict[str, tuple[HoldInterval, ...]] = {}
    for call_id, holds in by_call.items():
        holds.sort(key=lambda hold: hold[0].hold_start_ms)  # stable: ties keep file order
        for (prev, _), (hold, line_no) in zip(holds, holds[1:]):
            if hold.hold_start_ms < prev.hold_end_ms:
                raise MalformedRow(line_no, f"call {call_id!r}: overlapping holds")
        result[call_id] = tuple(hold for hold, _ in holds)
    return result


def attach_holds(corpus: Corpus, holds: dict[str, tuple[HoldInterval, ...]]) -> Corpus:
    """Return a new Corpus with hold intervals attached to their calls.

    A call's holds replace the ones it had; UnknownCall names a call the
    corpus lacks.
    """
    return Corpus.of_table(corpus.table, {**corpus.holds, **holds},
                           provenance=corpus.provenance, seed=corpus.seed)


def write_transcripts(corpus: Corpus, path: PathLike, header_comment: str | None = None) -> None:
    t = corpus.table
    rows = zip(
        (call_id for call_id, _ in t.keys), t.turn_index.tolist(),
        [CHANNELS[code] for code in t.channel.tolist()], t.start_ms.tolist(), t.end_ms.tolist(),
        t.text, ["" if label < 0 else label for label in t.label.tolist()],
    )
    write_csv(path, TRANSCRIPT_COLUMNS, rows, header_comment)


def write_holds(corpus: Corpus, path: PathLike, header_comment: str | None = None) -> None:
    rows = (
        [call_id, hold.hold_start_ms, hold.hold_end_ms]
        for call_id in corpus.table.call_ids
        for hold in corpus.holds.get(call_id, ())
    )
    write_csv(path, HOLD_COLUMNS, rows, header_comment)


def fold_plan_payload(plan: FoldPlan) -> dict:
    """The JSON form of a fold plan, assignment rows sorted by turn key."""
    assignment = [[cid, idx, fold] for (cid, idx), fold in sorted(plan.assignment.items())]
    return {"k": plan.k, "test_fold": plan.test_fold, "assignment": assignment}


def load_fold_plan(path: PathLike) -> FoldPlan:
    """Read a fold plan in the fold_plan_payload form; other keys are ignored.

    Raises MalformedRow when the file is not such a JSON object: a missing
    field, an assignment row that is not [call_id, turn_index, fold], a
    turn assigned twice, a call_id that is not a string, a k, test_fold,
    turn_index or fold that is not a JSON integer, or an out-of-range fold.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        assignment = {}
        for row in data["assignment"]:
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError(f"assignment row {row!r} is not [call_id, turn_index, fold]")
            key = (_typed(row[0], str, "call_id"), _typed(row[1], int, "turn_index"))
            if key in assignment:
                raise ValueError(f"turn {key!r} is assigned twice")
            assignment[key] = _typed(row[2], int, "fold")
        return FoldPlan(k=_typed(data["k"], int, "k"), assignment=assignment,
                        test_fold=_typed(data["test_fold"], int, "test_fold"))
    except KeyError as exc:
        raise MalformedRow(0, f"fold plan {str(path)!r}: missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise MalformedRow(0, f"fold plan {str(path)!r}: {exc}") from None


def _typed(value: T, kind: type, field: str) -> T:
    """value, if its type is exactly kind (so a bool is no int); else ValueError naming field."""
    if type(value) is not kind:
        raise ValueError(f"{field} must be {kind.__name__}, got {value!r}")
    return value
