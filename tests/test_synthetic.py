from dataclasses import fields, replace
from typing import get_type_hints

import pytest

from holdscan.corpus import generate_synthetic, load_profile
from holdscan.corpus.synthetic import DEFAULT_PROFILE, GeneratorProfile
from holdscan.errors import EmptyTemplatePool, NonMonotonicTimestamps
from holdscan.violations import UNREGISTERED_HOLD

NUMERIC_FIELDS = [f.name for f in fields(GeneratorProfile)
                  if get_type_hints(GeneratorProfile)[f.name] in (int, float)]

ZERO_SCRIPT_PROFILE = replace(
    DEFAULT_PROFILE,
    joint_counts=((1,),),  # all mass on zero openings, zero closings
    bare_hold_rate=0.0,
)


def test_determinism_bit_identical():
    first = generate_synthetic(40, 123)
    second = generate_synthetic(40, 123)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_different_seeds_differ():
    a, _ = generate_synthetic(40, 1)
    b, _ = generate_synthetic(40, 2)
    assert a != b


def test_opening_fraction_matches_calibration(default_synthetic):
    corpus, _ = default_synthetic
    fraction = corpus.label_counts()[1] / corpus.n_turns()
    assert abs(fraction - 463 / 37297) < 0.005


def test_script_count_marginals_match_weights(default_synthetic):
    from holdscan.corpus import corpus_stats

    corpus, _ = default_synthetic
    st = corpus_stats(corpus)
    weights = DEFAULT_PROFILE.joint_counts
    total_weight = sum(w for row in weights for w in row)
    zero_opening_expected = sum(weights[0]) / total_weight
    zero_opening_observed = (
        sum(n for (o, _), n in st.script_matrix.items() if o == 0) / st.n_calls
    )
    assert abs(zero_opening_observed - zero_opening_expected) < 0.05


def test_zero_script_profile():
    corpus, ledger = generate_synthetic(1, 9, ZERO_SCRIPT_PROFILE)
    assert len(corpus.calls) == 1
    assert corpus.label_counts()[1] == 0
    assert corpus.label_counts()[2] == 0
    assert all(t.label == 0 for t in corpus.iter_turns())
    assert ledger == []


def test_ledger_references_exist(small_synthetic):
    corpus, ledger = small_synthetic
    for violation in ledger:
        call = corpus.call(violation.call_id)
        if violation.kind == UNREGISTERED_HOLD:
            assert corpus.turn((violation.call_id, violation.turn_index)).label in (1, 2)
        else:
            boundaries = {(h.hold_start_ms, h.hold_end_ms) for h in call.holds}
            assert (violation.hold_start_ms, violation.hold_end_ms) in boundaries


def test_script_rows_match_labels(small_synthetic):
    corpus, _ = small_synthetic
    for call in corpus.calls:
        for turn in call.turns:
            assert turn.label in (0, 1, 2)
            if turn.label in (1, 2):
                assert turn.channel == "agent"


def test_empty_template_pool_raises():
    profile = replace(
        DEFAULT_PROFILE,
        joint_counts=((0, 1),),  # every call: zero openings, one closing
        closing_templates=(),
    )
    with pytest.raises(EmptyTemplatePool):
        generate_synthetic(3, 5, profile)


@pytest.mark.parametrize("changes, seed, error, message", [
    ({"turn_dur_min_ms": -5000}, 1, ValueError, "end_ms 26214 < start_ms 28569"),
    ({"turn_gap_min_ms": -30000, "turn_gap_max_ms": -20000}, 1, ValueError,
     "start_ms must be >= 0, got -20074"),
    ({"script_gap_min_ms": -40000, "script_gap_max_ms": -30000,
      "joint_counts": ((0, 1), (1, 5))}, 3, NonMonotonicTimestamps,
     "call 'c00002': start_ms decreases along turn_index order"),
], ids=["turn_ends_before_it_starts", "negative_start", "start_goes_back"])
def test_negative_times_fail_as_a_turn_would(changes, seed, error, message):
    """A profile with negative times fails at the first turn or call that
    breaks a PhraseTurn or Call rule, with that rule's error."""
    with pytest.raises(error) as raised:
        generate_synthetic(20, seed, replace(DEFAULT_PROFILE, **changes))
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_n_calls_must_be_positive():
    with pytest.raises(ValueError):
        generate_synthetic(0, 1)


def test_bad_rates_rejected():
    with pytest.raises(ValueError):
        GeneratorProfile(unregistered_rate=1.5)
    with pytest.raises(ValueError):
        GeneratorProfile(joint_counts=((0, 0), (0, 0)))


def test_profile_file_roundtrip(tmp_path):
    pool = tmp_path / "openings.txt"
    pool.write_text("custom opening one\ncustom opening two\n", encoding="utf-8")
    profile_file = tmp_path / "profile.cfg"
    profile_file.write_text(
        "# generator profile\n"
        "joint_counts = 5 1 ; 1 1\n"
        "unregistered_rate = 0.5\n"
        "quarantine_ms = 25000\n"
        "opening_templates_file = openings.txt\n",
        encoding="utf-8",
    )
    profile = load_profile(profile_file)
    assert profile.joint_counts == ((5, 1), (1, 1))
    assert profile.unregistered_rate == 0.5
    assert profile.quarantine_ms == 25000
    assert profile.opening_templates == ("custom opening one", "custom opening two")
    corpus, _ = generate_synthetic(10, 3, profile)
    opening_texts = {t.text for t in corpus.iter_turns() if t.label == 1}
    assert opening_texts <= set(profile.opening_templates)


def test_unknown_profile_key_rejected(tmp_path):
    profile_file = tmp_path / "profile.cfg"
    profile_file.write_text("frobnicate = 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="frobnicate"):
        load_profile(profile_file)


def test_numeric_fields_are_the_expected_ones():
    assert len(NUMERIC_FIELDS) == 13
    assert {"rows_per_call_median", "unregistered_rate", "quarantine_ms"} <= set(NUMERIC_FIELDS)


@pytest.mark.parametrize("name", NUMERIC_FIELDS)
def test_numeric_profile_key_round_trip(name, tmp_path):
    default = getattr(DEFAULT_PROFILE, name)
    value = default + 1 if type(default) is int else default / 2
    profile_file = tmp_path / "profile.cfg"
    profile_file.write_text(f"{name} = {value}\n", encoding="utf-8")
    loaded = getattr(load_profile(profile_file), name)
    assert loaded == value
    assert type(loaded) is type(default)


@pytest.mark.parametrize("line", ["quarantine_ms = soon", "quarantine_ms = 2.5",
                                  "unregistered_rate = often"])
def test_non_numeric_profile_value_rejected(line, tmp_path):
    profile_file = tmp_path / "profile.cfg"
    profile_file.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_profile(profile_file)
