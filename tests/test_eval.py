import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from condest import evaluation
from condest.evaluation import (EvalError, bootstrap_test, brackets,
                                resampled_counts, score_corpus,
                                sentence_stats)
from condest.trees import Tree, parse_trees
from oracles import (bootstrap_test_reference, brackets_reference,
                     random_nary_tree)


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
    with pytest.raises(EvalError, match="^sentence 1: terminal strings"):
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
    # Python floats, as EvalReport's, so that their repr does not depend
    # on numpy's version
    assert type(res.observed_delta_f) is float
    assert type(res.p_value) is float


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


# ---------------------------------------------------------------------------
# The resampler: numpy's per-iteration stream, drawn for many iterations at
# once, against numpy's own generators.

def _numpy_draws(seed, it, n):
    return np.random.default_rng((seed, it)).integers(0, n, n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), first=st.integers(0, 2 ** 32 - 1),
       count=st.integers(1, 4), n=st.integers(1, 1000))
def test_vector_draws_are_numpys(seed, first, count, n):
    """Each iteration's vector draws equal ``default_rng((seed, it))
    .integers(0, n, n)`` unless numpy's bounded draw rejected a word."""
    its = np.arange(first, min(first + count, 2 ** 32), dtype=np.uint32)
    draws, rejected = evaluation._vector_draws(seed, its, n)
    assert draws.shape == (len(its), n)
    for row, it, rej in zip(draws, its, rejected):
        if not rej:
            assert np.array_equal(row, _numpy_draws(seed, int(it), n))


def test_rejected_draw_takes_numpys_path():
    """At seed 0, iteration 389, n 997, numpy's bounded draw rejects the
    word of draw 6 (its leftover is below (2**32 - 997) % 997) and draws
    again; the vector row flags it, and the resampler counts numpy's."""
    seed, it, n = 0, 389, 997
    draws, rejected = evaluation._vector_draws(
        seed, np.array([it - 1, it], dtype=np.uint32), n)
    expected = _numpy_draws(seed, it, n)
    assert list(rejected) == [False, True]
    assert np.array_equal(draws[1, :6], expected[:6])
    assert not np.array_equal(draws[1], expected)
    counts = np.vstack(list(resampled_counts(n, it + 1, seed)))
    assert np.array_equal(counts[it], np.bincount(expected, minlength=n))
    assert np.array_equal(counts[it - 1],
                          np.bincount(_numpy_draws(seed, it - 1, n),
                                      minlength=n))


def _random_systems(rng, n):
    """A gold corpus of ``n`` trees, some bare words (no brackets, so 0/0
    rows), and two systems that keep, relabel the root of, or fail each
    sentence."""
    gold = [random_nary_tree(rng, max_depth=rng.randint(0, 3))
            for _ in range(n)]

    def system():
        out = []
        for tree in gold:
            edit = rng.choice(("keep", "relabel", "fail"))
            out.append(None if edit == "fail" else
                       Tree("Q", tree.children) if edit == "relabel"
                       and tree.children else tree)
        return out

    return gold, system(), system()


@st.composite
def _systems(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return _random_systems(rng, draw(st.integers(1, 40)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_systems(), st.sampled_from([0, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 40]),
       st.integers(1, 300))
def test_bootstrap_matches_per_iteration_generators(corpora, seed,
                                                    iterations):
    """The same p-value and observed difference, ``repr`` for ``repr``, as
    one numpy generator per iteration scored with scalar arithmetic."""
    gold, a, b = corpora
    expected = bootstrap_test_reference(gold, a, b, iterations, seed)
    assume(expected.observed_delta_f != 0)
    assert (repr(bootstrap_test(gold, a, b, iterations, seed))
            == repr(expected))


def test_failed_stream_check_falls_back_to_numpy(monkeypatch):
    """A vector stream that disagrees with numpy is caught by the check on
    first use, and every iteration is drawn by numpy instead.  The broken
    stream draws only sentence 1, which system B fails: taken, it would
    give p = 1 where numpy's draws give p near 0."""
    def sentence_one_only(seed, its, n):
        return (np.zeros((len(its), n), dtype=np.uint64),
                np.zeros(len(its), dtype=bool))

    monkeypatch.setattr(evaluation, "_vector_draws", sentence_one_only)
    evaluation._vector_stream_ok.cache_clear()
    try:
        gold = [t("(S (A a) (B b))")] * 12
        pred_b = [g if i % 3 else None for i, g in enumerate(gold)]
        got = bootstrap_test(gold, list(gold), pred_b, iterations=50, seed=3)
        assert evaluation._vector_stream_ok() is False
    finally:
        evaluation._vector_stream_ok.cache_clear()
    assert repr(got) == repr(bootstrap_test_reference(
        gold, list(gold), pred_b, iterations=50, seed=3))


@pytest.mark.parametrize("n", [evaluation._VECTOR_MAX_N,
                               evaluation._VECTOR_MAX_N + 1, 1100])
def test_bootstrap_on_large_test_sets(monkeypatch, n):
    """Up to ``_VECTOR_MAX_N`` sentences the vector stream draws, past it
    numpy's generators do; either way the result is the reference's."""
    gold, a, b = _random_systems(random.Random(n), n)
    vector_calls = []
    right = evaluation._vector_draws

    def counted(seed, its, size):   # the first-use check draws 7 a row
        if size == n:
            vector_calls.append(len(its))
        return right(seed, its, size)

    monkeypatch.setattr(evaluation, "_vector_draws", counted)
    for seed in (0, 5):
        expected = bootstrap_test_reference(gold, a, b, 40, seed)
        assert expected.observed_delta_f != 0
        assert repr(bootstrap_test(gold, a, b, 40, seed)) == repr(expected)
    assert sum(vector_calls) == (80 if n <= evaluation._VECTOR_MAX_N else 0)
