import numpy as np
import pytest
from hypothesis import given, strategies as st

from holdscan.classifier import ProbTriple
from holdscan.decision import REJECT_ALL_THRESHOLD, DecisionRule, decide, decide_batch

from oracles import reference_decide


def triple(p0, p1, p2):
    return ProbTriple(p0, p1, p2)


def test_no_positive_mass():
    assert decide(triple(1.0, 0.0, 0.0), DecisionRule(0.5)) == 0


def test_gate_overrides_global_argmax():
    # global argmax is class 0, but the gate passes and restricts to {1, 2}
    assert decide(triple(0.55, 0.25, 0.20), DecisionRule(0.4)) == 1


def test_tie_goes_to_opening():
    assert decide(triple(0.2, 0.4, 0.4), DecisionRule(0.5)) == 1


def test_sum_below_threshold():
    assert decide(triple(0.2, 0.3, 0.5), DecisionRule(0.81)) == 0


def test_boundary_is_inclusive():
    # the gate comparison is >=, so a sum exactly at the threshold passes
    p = triple(0.5, 0.2, 0.3)
    assert decide(p, DecisionRule(p.p1 + p.p2)) == 2


def test_batch_is_elementwise():
    probs = [triple(0.8, 0.1, 0.1), triple(0.1, 0.2, 0.7), triple(0.3, 0.4, 0.3)]
    rule = DecisionRule(0.45)
    decided = decide_batch(probs, rule)
    assert decided == [decide(p, rule) for p in probs]
    assert all(type(label) is int for label in decided)
    assert decide_batch(np.array([tuple(p) for p in probs]), rule) == decided
    assert decide_batch([], rule) == []


def test_zero_threshold_never_emits_irrelevant():
    probs = [triple(1.0, 0.0, 0.0), triple(0.9, 0.05, 0.05), triple(0.0, 0.5, 0.5)]
    assert 0 not in decide_batch(probs, DecisionRule(0.0))


def test_sentinel_rejects_everything():
    probs = [triple(0.0, 1.0, 0.0), triple(0.0, 0.0, 1.0), triple(0.2, 0.4, 0.4)]
    assert decide_batch(probs, DecisionRule(REJECT_ALL_THRESHOLD)) == [0, 0, 0]


def test_rule_validation():
    with pytest.raises(ValueError):
        DecisionRule(-0.1)
    with pytest.raises(ValueError):
        DecisionRule(1.1)
    DecisionRule(0.0)
    DecisionRule(REJECT_ALL_THRESHOLD)


@st.composite
def prob_triples(draw):
    a = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    b = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    c = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    total = a + b + c
    if total == 0.0:
        return ProbTriple(1.0, 0.0, 0.0)
    return ProbTriple(a / total, b / total, c / total)


@given(prob_triples(), st.floats(min_value=0.0, max_value=1.0))
def test_threshold_monotonicity(p, threshold):
    # positive decisions appear exactly for thresholds up to p1 + p2
    decision = decide(p, DecisionRule(threshold))
    if threshold <= p.p1 + p.p2:
        assert decision in (1, 2)
    else:
        assert decision == 0


@given(prob_triples(), st.floats(min_value=0.0, max_value=1.0))
def test_matches_reference_restatement(p, threshold):
    assert decide(p, DecisionRule(threshold)) == reference_decide(tuple(p), threshold)


@given(prob_triples(), st.floats(min_value=0.01, max_value=1.0))
def test_positive_scaling_keeps_the_winner(p, factor):
    s = p.p1 + p.p2
    if s == 0.0:
        return
    scaled = ProbTriple(max(0.0, 1.0 - factor * s), factor * p.p1, factor * p.p2)
    rule = DecisionRule(0.0)  # gate always passes at zero threshold
    assert decide(p, rule) == decide(scaled, rule)


@given(st.lists(prob_triples(), max_size=20), st.floats(min_value=0.0, max_value=1.0))
def test_batch_matches_reference_restatement(probs, threshold):
    want = [reference_decide(tuple(p), threshold) for p in probs]
    assert decide_batch(probs, DecisionRule(threshold)) == want
    # exactly at each row's own sum, the >= boundary must let it through
    for p in probs:
        at_sum = p.p1 + p.p2
        assert decide_batch([p], DecisionRule(at_sum)) == [reference_decide(tuple(p), at_sum)]
