import numpy as np
import pytest

from holdscan.classifier import ProbTriple, load_external_proba, write_proba
from holdscan.errors import (
    DuplicateKey,
    MalformedRow,
    MissingColumn,
    ProbabilityInvariantViolation,
)

HEADER = "call_id,turn_index,p0,p1,p2\n"


def write_file(tmp_path, body, header=HEADER):
    path = tmp_path / "proba.csv"
    path.write_text(header + body, encoding="utf-8")
    return path


def test_pass_through(tmp_path):
    path = write_file(tmp_path, "c1,0,0.8,0.15,0.05\n")
    result = load_external_proba(path)
    assert result[("c1", 0)] == ProbTriple(0.8, 0.15, 0.05)


def test_renormalizes_within_tolerance(tmp_path):
    path = write_file(tmp_path, "c1,0,0.5,0.3,0.2000003\n")
    p = load_external_proba(path)[("c1", 0)]
    assert abs(p.p0 + p.p1 + p.p2 - 1.0) <= 1e-9


def test_rejects_far_off_sum(tmp_path):
    path = write_file(tmp_path, "c1,0,0.2,0.2,0.1\n")
    with pytest.raises(ProbabilityInvariantViolation):
        load_external_proba(path)


def test_rejects_negative(tmp_path):
    path = write_file(tmp_path, "c1,0,-0.1,0.6,0.5\n")
    with pytest.raises(ProbabilityInvariantViolation):
        load_external_proba(path)


def test_rejects_nan(tmp_path):
    path = write_file(tmp_path, "c1,0,0.5,0.5,0.0\nc1,1,nan,0.5,0.5\n")
    with pytest.raises(ProbabilityInvariantViolation, match="^line 3: negative or NaN probability$"):
        load_external_proba(path)


def test_duplicate_key(tmp_path):
    path = write_file(tmp_path, "c1,0,0.8,0.1,0.1\nc1,0,0.7,0.2,0.1\n")
    with pytest.raises(DuplicateKey):
        load_external_proba(path)


def test_malformed_row(tmp_path):
    path = write_file(tmp_path, "c1,zero,0.8,0.1,0.1\n")
    with pytest.raises(MalformedRow):
        load_external_proba(path)


def test_missing_column(tmp_path):
    path = write_file(tmp_path, "c1,0,0.8,0.2\n", header="call_id,turn_index,p0,p1\n")
    with pytest.raises(MissingColumn):
        load_external_proba(path)


def test_comment_lines_ignored(tmp_path):
    path = write_file(tmp_path, "c1,0,1.0,0.0,0.0\n", header="# produced elsewhere\n" + HEADER)
    assert ("c1", 0) in load_external_proba(path)


def test_write_then_load_roundtrip(tmp_path):
    rows = [
        ("c1", 0, ProbTriple(0.8, 0.15, 0.05)),
        ("c1", 1, ProbTriple(1 / 3, 1 / 3, 1 / 3)),
        ("c2", 0, ProbTriple(0.0, 1.0, 0.0)),
    ]
    path = tmp_path / "out.csv"
    write_proba(path, [(c, i) for c, i, _ in rows], np.array([p for *_, p in rows]),
                header_comment="test")
    loaded = load_external_proba(path)
    for call_id, idx, triple in rows:
        assert loaded[(call_id, idx)] == triple


def test_byte_order_mark_is_accepted(tmp_path):
    # Spreadsheet exports often start with a UTF-8 byte-order mark.
    body = "a,0,0.7,0.2,0.1\nb,3,0.1,0.1,0.8\n"
    plain = write_file(tmp_path, body)
    marked = tmp_path / "marked.csv"
    marked.write_text("\ufeff" + HEADER + body, encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_external_proba(marked) == load_external_proba(plain)


def test_float64_array_round_trips_bit_for_bit(tmp_path):
    probs = np.random.default_rng(5).dirichlet([0.3, 1.0, 2.0], size=200)
    probs[0] = [1.0, -0.0, 0.0]
    keys = [(f"c{i % 7}", i) for i in range(len(probs))]
    path = tmp_path / "out.csv"
    write_proba(path, keys, probs)
    loaded = load_external_proba(path)
    assert list(loaded) == keys
    assert loaded.probs.tobytes() == probs.tobytes()


def test_numpy_scalars_are_written_as_floats(tmp_path):
    """numpy 2's repr of a float64 scalar is np.float64(0.2); the file holds 0.2."""
    row = np.array([[0.2, 0.3, 0.5]])[0]
    path = tmp_path / "out.csv"
    write_proba(path, [("a", 0)], [tuple(row)])
    assert path.read_text().splitlines()[-1] == "a,0,0.2,0.3,0.5"
    assert load_external_proba(path).probs.tobytes() == row.tobytes()
