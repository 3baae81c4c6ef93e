import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condest.evaluation import (EvalError, bootstrap_test, brackets,
                                score_corpus, sentence_stats)
from condest.trees import Tree, parse_trees
from oracles import brackets_reference, random_nary_tree


def t(s):
    return parse_trees(s)[0]


def test_brackets():
    got = brackets(t("(S (A a) (B b))"))
    assert got == {(0, 1, "A"): 1, (1, 2, "B"): 1, (0, 2, "S"): 1}


def test_brackets_multiset():
    got = brackets(t("(S (A (A a)))"))
    assert got[(0, 1, "A")] == 2


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(1, 6))
def test_brackets_match_recursive_walk(seed, depth):
    tree = random_nary_tree(random.Random(seed), max_depth=depth)
    assert brackets(tree) == brackets_reference(tree)


def test_sentence_stats():
    gold = t("(S (A a) (B b))")
    assert sentence_stats(gold, gold) == (3, 3, 3)
    assert sentence_stats(gold, t("(X (A a) (B b))")) == (2, 3, 3)
    assert sentence_stats(gold, None) == (0, 3, 0)


def test_score_identical():
    gold = [t("(S (A a) (B b))"), t("(S (A a))")]
    rep = score_corpus(gold, list(gold))
    assert rep.precision == rep.recall == rep.f_score == 1.0
    assert (rep.matched, rep.gold_total, rep.predicted_total) == (5, 5, 5)


def test_score_relabelled_root():
    gold = [t("(S (A a) (B b))")]
    pred = [t("(X (A a) (B b))")]
    rep = score_corpus(gold, pred)
    assert rep.precision == pytest.approx(2 / 3)
    assert rep.recall == pytest.approx(2 / 3)
    assert rep.f_score == pytest.approx(2 / 3)


def test_score_all_failed():
    gold = [t("(S (A a) (B b))")]
    rep = score_corpus(gold, [None])
    # empty predicted set: precision 1 by convention, recall 0
    assert rep.precision == 1.0
    assert rep.recall == 0.0
    assert rep.f_score == 0.0


def test_score_micro_average():
    gold = [t("(S (A a) (B b))"), t("(S (A a) (B b))")]
    pred = [gold[0], None]
    rep = score_corpus(gold, pred)
    assert (rep.matched, rep.gold_total, rep.predicted_total) == (3, 6, 3)
    assert rep.precision == pytest.approx(1.0)
    assert rep.recall == pytest.approx(0.5)


def test_score_errors():
    gold = [t("(S (A a) (B b))")]
    with pytest.raises(EvalError, match="length"):
        score_corpus(gold, [])
    with pytest.raises(EvalError, match="terminal strings"):
        score_corpus(gold, [t("(S (A a) (B c))")])


def test_bootstrap_identical_predictions():
    gold = [t("(S (A a) (B b))")] * 8
    pred = list(gold)
    res = bootstrap_test(gold, pred, pred, iterations=200, seed=0)
    assert res.observed_delta_f == pytest.approx(0.0)
    assert res.p_value >= 0.5


def test_bootstrap_dominating_system():
    gold = [t("(S (A a) (B b))")] * 30
    pred_a = list(gold)
    pred_b = [g if i % 3 == 0 else None for i, g in enumerate(gold)]
    res = bootstrap_test(gold, pred_a, pred_b, iterations=300, seed=0)
    assert res.observed_delta_f > 0
    assert res.p_value < 0.05


def test_bootstrap_deterministic():
    gold = [t("(S (A a) (B b))")] * 10
    pred_b = [g if i % 2 == 0 else None for i, g in enumerate(gold)]
    r1 = bootstrap_test(gold, list(gold), pred_b, iterations=100, seed=7)
    r2 = bootstrap_test(gold, list(gold), pred_b, iterations=100, seed=7)
    assert r1 == r2


def test_bootstrap_validation():
    gold = [t("(S (A a) (B b))")]
    with pytest.raises(EvalError):
        bootstrap_test(gold, [], [], iterations=10)
    with pytest.raises(EvalError, match="iterations"):
        bootstrap_test(gold, list(gold), list(gold), iterations=0)
    with pytest.raises(EvalError, match="seed must be >= 0"):
        bootstrap_test(gold, list(gold), list(gold), iterations=10, seed=-1)


@st.composite
def _gold_and_pred(draw):
    """A gold corpus and a prediction file made from it by a few edits:
    truncated or extended, permuted, one yield changed, failed parses."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    gold = [random_nary_tree(rng, max_depth=3)
            for _ in range(draw(st.integers(0, 5)))]
    pred = list(gold)
    for edit in draw(st.lists(st.sampled_from(
            ("truncate", "extend", "permute", "yield", "none")), max_size=3)):
        if edit == "truncate":
            pred = pred[:draw(st.integers(0, len(pred)))]
        elif edit == "extend":
            pred.append(random_nary_tree(rng, max_depth=3))
        elif edit == "permute":
            pred = draw(st.permutations(pred))
        elif pred:
            i = draw(st.integers(0, len(pred) - 1))
            t = pred[i]
            pred[i] = (None if edit == "none" or t is None
                       else Tree(t.label, t.children + (Tree("q"),)))
    return gold, pred


def _refusal(f):
    """The message of the EvalError ``f`` raises, or None."""
    try:
        f()
    except EvalError as e:
        return str(e)
    return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_gold_and_pred())
def test_bootstrap_refuses_what_score_corpus_refuses(corpora):
    """Scoring and the bootstrap share one alignment rule: the same
    prediction file is refused by both, with the same message, in either
    bootstrap position; an empty corpus the bootstrap alone refuses."""
    gold, pred = corpora
    refused = _refusal(lambda: score_corpus(gold, pred))
    for a, b in ((pred, gold), (gold, pred)):
        got = _refusal(lambda: bootstrap_test(gold, a, b, iterations=2))
        assert got == (refused if refused or gold else "empty corpus")
