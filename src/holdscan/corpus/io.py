"""CSV ingestion and serialization for transcripts and hold logs.

Transcript CSV (UTF-8, header required):
    call_id,turn_index,channel,start_ms,end_ms,text,label
The label column is optional; the channel column is optional and defaults
to "unknown".

Holds CSV:
    call_id,hold_start_ms,hold_end_ms

Every input CSV, the predictions CSV of holdscan.classifier included, is
read once, by read_columns: UTF-8 with an optional byte-order mark, blank
lines and comment lines skipped anywhere, the first other line the
header. A comment is a line that starts with '#' after optional
whitespace where a record would start; a line inside a quoted cell is
text, and a row whose quoted first cell starts with '#' is data. A row
needs a cell for each column holdscan reads; extra cells and columns are
ignored, and a shorter row is a MalformedRow with one message in every
format. Every output CSV has write_csv's bytes: csv.writer's, but for a
first cell that would start a comment line, which is quoted.

Each reader checks its columns in array passes, one per rule, and builds
each bad row's error from the cells already read (row_errors): the first
rule the row breaks, at its line. Integer cells go through numeric_cells,
so a turn_index, timestamp or hold bound outside the 64-bit range fails
the same way in every format.

Fold plan JSON:
    {"k": k, "test_fold": t, "assignment": [[call_id, turn_index, fold], ...]}
"""

from __future__ import annotations

import csv
import io
import json
from collections import ChainMap
from contextlib import contextmanager
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, TypeVar, Union

import numpy as np

from ..errors import (
    DataValidationError,
    DuplicateTurnIndex,
    MalformedRow,
    MissingColumn,
    NonMonotonicTimestamps,
)
from .model import CHANNELS, Corpus, FoldPlan, HoldInterval, TurnTable, check_turn

PathLike = Union[str, Path]

TRANSCRIPT_COLUMNS = ("call_id", "turn_index", "channel", "start_ms", "end_ms", "text", "label")
REQUIRED_COLUMNS = ("call_id", "turn_index", "start_ms", "end_ms", "text")
OPTIONAL_COLUMNS = ("channel", "label")
HOLD_COLUMNS = ("call_id", "hold_start_ms", "hold_end_ms")

T = TypeVar("T")


def read_columns(
    path: PathLike, columns: Sequence[str], optional: Sequence[str] = ()
) -> tuple[list[int], list[list[str]], dict[int, str]]:
    """The data rows of an input CSV, read once, as columns.

    Returns each row's physical line number (the last line of its record),
    the cells of columns and then of optional, one list per column, and
    the reason of each row too short to hold every column read, by row
    position; such a row reads "" in every column, and so does every row
    in an optional column the header lacks. Blank lines are skipped, and
    so are comment lines: a line that starts with '#' after optional
    whitespace where a record would start. Raises MalformedRow when the
    file has no header and MissingColumn when the header lacks one of
    columns.
    """
    lines, rows = [], []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        line_no = 0
        between = True  # whether the csv reader asks for a record's first line

        def source() -> Iterator[str]:
            nonlocal line_no, between
            for line_no, line in enumerate(fh, 1):
                # _starts_comment's rule, inlined because it runs once per line.
                if between and line.lstrip().startswith("#"):
                    continue
                between = False
                yield line

        for row in csv.reader(source()):
            if row:
                lines.append(line_no)
                rows.append(row)
            between = True
    if not rows:
        raise MalformedRow(0, "file has no header row")
    header, rows, lines = rows[0], rows[1:], lines[1:]
    missing = [c for c in columns if c not in header]
    if missing:
        raise MissingColumn(missing)
    positions = [header.index(c) if c in header else -1 for c in (*columns, *optional)]
    width = max(positions) + 1
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    short = {i: f"expected at least {width} cells, got {lengths[i]}"
             for i in np.flatnonzero(lengths < width).tolist()}
    for i in short:
        rows[i] = [""] * width
    cells = [list(map(itemgetter(p), rows)) if p >= 0 else [""] * len(rows) for p in positions]
    return lines, cells, short


def numeric_cells(
    cells: Sequence[str], kind: type = int
) -> tuple[np.ndarray, dict[int, str], dict[int, str]]:
    """cells as int64 (kind int) or float64 (kind float); the message
    kind() gives each cell it rejects, by row; and the reason of each
    integer cell outside the 64-bit range, by row. A cell of either kind
    reads -1. Cells convert one by one only when the whole column does not."""
    n, dtype = len(cells), np.int64 if kind is int else np.float64
    try:
        return np.fromiter(map(kind, cells), dtype, n), {}, {}
    except (ValueError, OverflowError):
        pass
    values = np.full(n, -1, dtype)
    rejected, outside = {}, {}
    for i, cell in enumerate(cells):
        try:
            values[i] = kind(cell)
        except ValueError as exc:
            rejected[i] = str(exc)
        except OverflowError:
            outside[i] = "integer field outside the 64-bit range"
    return values, rejected, outside


def row_errors(
    lines: list[int],
    rules: Iterable[tuple[Iterable[int], Callable[[int], str | DataValidationError]]],
) -> dict[int, DataValidationError]:
    """The error of each row a rule names, by row position, in file order.

    A rule is a pair: the rows that break it, as a bool mask over the rows
    or as row positions (a dict gives its keys), and a function giving a
    row's reason. rules come in order, and a row's reason is asked only of
    the first rule that names it, so a reason may rely on every earlier
    rule holding for its row. A str reason is a MalformedRow at the row's
    line.
    """
    reasons: dict[int, str | DataValidationError] = {}
    for rows, reason in rules:
        for row in np.flatnonzero(rows).tolist() if isinstance(rows, np.ndarray) else rows:
            if row not in reasons:
                reasons[row] = reason(row)
    return {row: MalformedRow(lines[row], reason) if isinstance(reason, str) else reason
            for row, reason in sorted(reasons.items())}


def _message(check: Callable[..., object], *args: object) -> str:
    """The message of the ValueError check(*args) raises."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{check.__name__}{args} raised no ValueError")


def _starts_comment(text: object) -> bool:
    """Whether text, as a line, would be a comment: a str starting with '#'
    after optional whitespace."""
    return isinstance(text, str) and text.lstrip().startswith("#")


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


# A channel cell, stripped, to its code in CHANNELS; an empty cell is "unknown".
_CHANNEL_CODE = {channel: i for i, channel in enumerate(CHANNELS)}
_CHANNEL_CODE[""] = _CHANNEL_CODE["unknown"]


def _read_transcripts(
    path: PathLike,
) -> tuple[Optional[TurnTable], list[tuple[int, DataValidationError]]]:
    """A transcript CSV's turn table and [], or None and every error as
    (line number, error): each bad row's, in file order, then each call's
    first turn-order break among the good rows, in first-seen call order.

    A bad row's error is the first of the rules below that it breaks.
    Raises what read_columns raises for the header.
    """
    lines, columns, short = read_columns(path, REQUIRED_COLUMNS, OPTIONAL_COLUMNS)
    call_col, index_col, start_col, end_col, text_col, channel_col, label_col = columns
    n = len(lines)
    (turn_index, index_bad, index_out), (start_ms, start_bad, start_out), \
        (end_ms, end_bad, end_out) = map(numeric_cells, (index_col, start_col, end_col))
    channel = np.fromiter(map(_CHANNEL_CODE.get, map(str.strip, channel_col), repeat(-1)),
                          np.int8, n)
    raw = list(map(str.strip, label_col))
    given = np.fromiter(map(bool, raw), bool, n)
    label, label_bad, _ = numeric_cells([cell or "-1" for cell in raw])
    breaks_turn = ((turn_index < 0) | (start_ms < 0) | (end_ms < start_ms) | (channel < 0)
                   | (given & ((label < 0) | (label > 2))))
    non_integer = ChainMap(index_bad, start_bad, end_bad)  # a row's first bad cell names it
    outside = {**index_out, **start_out, **end_out}
    bad = row_errors(lines, [
        (short, short.get),
        (non_integer, lambda i: f"non-integer field ({non_integer[i]})"),
        (outside, outside.get),
        (label_bad, lambda i: f"label must be an integer, got {raw[i]!r}"),
        (breaks_turn, lambda i: _message(
            check_turn, int(turn_index[i]), channel_col[i].strip() or "unknown",
            int(start_ms[i]), int(end_ms[i]), int(raw[i]) if raw[i] else None)),
    ])
    errors = [(error.line_no, error) for error in bad.values()]

    rows = np.delete(np.arange(n), list(bad))
    calls = list(map(call_col.__getitem__, rows.tolist()))
    call_ids = tuple(dict.fromkeys(calls))
    position = {call_id: i for i, call_id in enumerate(call_ids)}
    call_of_row = np.fromiter(map(position.__getitem__, calls), np.int64, len(calls))
    by_key = np.lexsort((turn_index[rows], call_of_row))  # stable: repeats keep file order
    order, call_of_row = rows[by_key], call_of_row[by_key]
    turn_index, start_ms = turn_index[order], start_ms[order]
    same_call = call_of_row[1:] == call_of_row[:-1]
    repeated = same_call & (turn_index[1:] == turn_index[:-1])
    breaks = np.flatnonzero(repeated | (same_call & (start_ms[1:] < start_ms[:-1])))
    breaks = breaks[np.unique(call_of_row[breaks + 1], return_index=True)[1]]
    for b in breaks.tolist():
        call_id = call_ids[call_of_row[b + 1]]
        error = (DuplicateTurnIndex(call_id, int(turn_index[b + 1])) if repeated[b]
                 else NonMonotonicTimestamps(call_id))
        errors.append((lines[order[b + 1]], error))
    if errors:
        return None, errors
    return TurnTable(
        call_ids=call_ids,
        offsets=np.concatenate(([0], np.cumsum(np.bincount(call_of_row, minlength=len(call_ids))))),
        turn_index=turn_index,
        start_ms=start_ms,
        end_ms=end_ms[order],
        channel=channel[order],
        label=label[order],
        text=list(map(text_col.__getitem__, order.tolist())),
    ), []


def ingest_transcripts(path: PathLike) -> Corpus:
    """Parse a transcript CSV into a Corpus.

    Row order within a call is normalized by turn_index. Raises
    MissingColumn, MalformedRow, DuplicateTurnIndex or
    NonMonotonicTimestamps: the first error _read_transcripts finds.
    """
    table, errors = _read_transcripts(path)
    if errors:
        raise errors[0][1]
    return Corpus.of_table(table)


def check_transcripts(path: PathLike) -> tuple[Optional[Corpus], list[MalformedRow]]:
    """A transcript CSV's Corpus and [], or None and every bad row, from one read.

    Bad rows come first, in file order, then one MalformedRow per call whose
    turn order breaks, at the first row that breaks it in turn_index order.
    A header-level problem (no header, missing columns) is the only entry,
    at line 1.
    """
    try:
        table, errors = _read_transcripts(path)
    except (MissingColumn, MalformedRow) as exc:
        return None, [MalformedRow(1, getattr(exc, "reason", str(exc)))]
    return None if errors else Corpus.of_table(table), [
        error if isinstance(error, MalformedRow) else MalformedRow(line_no, str(error))
        for line_no, error in errors]


def validate_transcripts(path: PathLike) -> list[MalformedRow]:
    """check_transcripts's bad rows; [] when the file would ingest cleanly."""
    return check_transcripts(path)[1]


def ingest_holds(path: PathLike) -> dict[str, tuple[HoldInterval, ...]]:
    """Parse a holds CSV into per-call sorted hold intervals.

    The first bad row raises a MalformedRow: a short row, a non-integer
    cell, one outside the 64-bit range, or a hold that does not end after
    it starts. Then a hold that starts before the one preceding it in
    start order ends is a MalformedRow at its own line.
    """
    lines, (call_col, start_col, end_col), short = read_columns(path, HOLD_COLUMNS)
    (start, start_bad, start_out), (end, end_bad, end_out) = map(numeric_cells, (start_col, end_col))
    non_integer = ChainMap(start_bad, end_bad)
    outside = {**start_out, **end_out}
    for error in row_errors(lines, [
        (short, short.get), (non_integer, non_integer.get), (outside, outside.get),
        (end <= start, lambda i: _message(HoldInterval, int(start[i]), int(end[i]))),
    ]).values():
        raise error
    by_call: dict[str, list[tuple[HoldInterval, int]]] = {}
    for call_id, hold_start, hold_end, line_no in zip(call_col, start.tolist(), end.tolist(),
                                                      lines):
        by_call.setdefault(call_id, []).append((HoldInterval(hold_start, hold_end), line_no))

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
