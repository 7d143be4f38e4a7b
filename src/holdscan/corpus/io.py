"""CSV ingestion and serialization for transcripts and hold logs.

Transcript CSV (UTF-8, header required):
    call_id,turn_index,channel,start_ms,end_ms,text,label
The label column is optional; the channel column is optional and defaults
to "unknown".

Holds CSV:
    call_id,hold_start_ms,hold_end_ms

Every input CSV, the predictions CSV of holdscan.classifier included, is
read by read_csv: UTF-8 with an optional byte-order mark, blank lines and
lines starting with '#' skipped anywhere, the first other line the header.
A row needs a cell for each column holdscan reads; extra cells and columns
are ignored, and a shorter row is a MalformedRow with one message in every
format. Every output CSV is written by write_csv.

Fold plan JSON:
    {"k": k, "test_fold": t, "assignment": [[call_id, turn_index, fold], ...]}
"""

from __future__ import annotations

import csv
import json
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TypeVar, Union

from ..errors import MalformedRow, MissingColumn, UnknownCall
from .model import Call, Corpus, FoldPlan, HoldInterval, PhraseTurn, turn_order_error

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
        reader = csv.reader(fh)
        rows = (row for row in reader if row and not row[0].lstrip().startswith("#"))
        header = next(rows, None)
        if header is None:
            raise MalformedRow(0, "file has no header row")
        missing = [c for c in columns if c not in header]
        if missing:
            raise MissingColumn(missing)
        # An optional column the header lacks reads the empty cell appended to each row.
        positions = [header.index(c) if c in header else -1 for c in (*columns, *optional)]
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


def strict(items: Iterable[T | MalformedRow]) -> Iterator[T]:
    """The items, raising the first MalformedRow among them instead of yielding it."""
    for item in items:
        if isinstance(item, MalformedRow):
            raise item
        yield item


def write_csv(
    path: PathLike,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    header_comment: str | None = None,
) -> None:
    """Write an optional '# header_comment' line, the header and the rows, each
    line CRLF-terminated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\r\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _parse_turn(line_no: int, cells: tuple[str, ...]) -> PhraseTurn:
    call_id, turn_index, start_ms, end_ms, text, channel, raw = cells
    try:
        turn_index = int(turn_index)
        start_ms = int(start_ms)
        end_ms = int(end_ms)
    except ValueError as exc:
        raise MalformedRow(line_no, f"non-integer field ({exc})") from None
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


def _build_corpus(turns: Iterable[PhraseTurn]) -> Corpus:
    """Group turns by call, in first-seen call order, and sort each call by
    turn_index; Call raises DuplicateTurnIndex or NonMonotonicTimestamps."""
    by_call: dict[str, list[PhraseTurn]] = {}
    for turn in turns:
        by_call.setdefault(turn.call_id, []).append(turn)
    return Corpus(calls=tuple(
        Call(call_id=call_id, turns=sorted(call_turns, key=lambda t: t.turn_index))
        for call_id, call_turns in by_call.items()
    ))


def ingest_transcripts(path: PathLike) -> Corpus:
    """Parse a transcript CSV into a Corpus.

    Row order within a call is normalized by turn_index. Raises
    MissingColumn, MalformedRow, DuplicateTurnIndex or
    NonMonotonicTimestamps on the first problem found.
    """
    rows = strict(read_csv(path, REQUIRED_COLUMNS, OPTIONAL_COLUMNS))
    return _build_corpus(_parse_turn(*row) for row in rows)


def validate_transcripts(path: PathLike) -> list[MalformedRow]:
    """Collect every bad row instead of failing on the first.

    Bad rows come first, in file order, then one MalformedRow per call whose
    turn order breaks, at the first row that breaks it in turn_index order.
    A header-level problem (no header, missing columns) is the only entry,
    at line 1. Returns an empty list when the file would ingest cleanly.
    """
    bad: list[MalformedRow] = []
    by_call: dict[str, list[tuple[int, PhraseTurn]]] = {}
    try:
        for row in read_csv(path, REQUIRED_COLUMNS, OPTIONAL_COLUMNS):
            try:
                if isinstance(row, MalformedRow):
                    raise row
                turn = _parse_turn(*row)
            except MalformedRow as exc:
                bad.append(exc)
            else:
                by_call.setdefault(turn.call_id, []).append((row[0], turn))
    except (MissingColumn, MalformedRow) as exc:
        return [MalformedRow(1, getattr(exc, "reason", str(exc)))]
    for rows in by_call.values():
        rows.sort(key=lambda row: row[1].turn_index)  # stable: repeats keep file order
        for (_, prev), (line_no, turn) in zip(rows, rows[1:]):
            error = turn_order_error(prev, turn)
            if error is not None:
                bad.append(MalformedRow(line_no, str(error)))
                break
    return bad


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
    """Return a new Corpus with hold intervals attached to their calls."""
    for call_id in holds:
        if not corpus.has_call(call_id):
            raise UnknownCall(call_id)
    calls = tuple(
        Call(call_id=c.call_id, turns=c.turns, holds=holds.get(c.call_id, c.holds))
        for c in corpus.calls
    )
    return Corpus(calls=calls, provenance=corpus.provenance, seed=corpus.seed)


def write_transcripts(corpus: Corpus, path: PathLike, header_comment: str | None = None) -> None:
    rows = (
        [t.call_id, t.turn_index, t.channel, t.start_ms, t.end_ms, t.text,
         "" if t.label is None else t.label]
        for call in corpus.calls
        for t in call.turns
    )
    write_csv(path, TRANSCRIPT_COLUMNS, rows, header_comment)


def write_holds(corpus: Corpus, path: PathLike, header_comment: str | None = None) -> None:
    rows = (
        [call.call_id, hold.hold_start_ms, hold.hold_end_ms]
        for call in corpus.calls
        for hold in call.holds
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
