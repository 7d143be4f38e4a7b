"""tests/mutants.py can run: every patch applies, and a failing test is listed."""

import subprocess
import sys

import mutants


def test_every_patch_applies_once_and_compiles():
    """A src change that moves a mutated line fails here, instead of turning
    its mutant into a silent no-op."""
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert set(mutants.EXPLAINED) <= set(names)
    for name, file, old, new in mutants.MUTANTS:
        text = (mutants.ROOT / file).read_text(encoding="utf-8")
        assert text.count(old) == 1, (name, file, old)
        compile(mutants.apply(text, old, new), file, "exec")


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    """Under the project's warning filters, hypothesis's report of a failing
    example ends in a FAILED line and exit 1, not in INTERNALERROR."""
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != 0\n"
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(mutants.ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    text = out.stdout + out.stderr
    assert out.returncode == 1, text
    assert "FAILED test_property.py::test_fails" in text
    assert "INTERNALERROR" not in text
