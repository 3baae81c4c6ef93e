import logging
import math
import os
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from condest import pcfg, toydata
from condest.pcfg import (AscentConfig, EstimationError, Pcfg, Production,
                          cll_gradient, corpus_stats, estimate_mcle,
                          estimate_mle, extract_counts, inside_outside, load_grammar, save_grammar,
                          tree_log_prob, tree_productions, viterbi_parse)
from condest.trees import Corpus, Tree, parse_trees, tree_yield, write_tree
from oracles import (bench_module, brute_marginal_and_expectations,
                     corpus_stats_reference, enumerate_parses,
                     estimate_mcle_reference, inside_outside_reference,
                     random_grammar, random_nary_tree, raw_cll,
                     sample_tree_from_grammar, tree_prob)


def t(s):
    return parse_trees(s)[0]


def P(lhs, *rhs):
    return Production(lhs, rhs)


@pytest.fixture
def tiny_corpus():
    return Corpus([t("(S (A a) (A a))"), t("(S (A a) (B b))")])


def test_tree_productions():
    counts = tree_productions(t("(S (A a) (A a))"))
    assert counts == {P("S", "A", "A"): 1, P("A", "a"): 2}


def test_extract_counts(tiny_corpus):
    counts = extract_counts(tiny_corpus)
    assert counts.counts == {P("S", "A", "A"): 1.0, P("S", "A", "B"): 1.0,
                             P("A", "a"): 3.0, P("B", "b"): 1.0}
    assert counts.lhs_totals == {"S": 2.0, "A": 3.0, "B": 1.0}
    assert counts.start == "S"


def test_extract_counts_empty():
    with pytest.raises(EstimationError, match="empty"):
        extract_counts(Corpus([]))


def test_estimate_mle(tiny_corpus):
    g = estimate_mle(extract_counts(tiny_corpus))
    assert g.start == "S"
    assert g.theta[P("S", "A", "A")] == pytest.approx(0.5)
    assert g.theta[P("A", "a")] == pytest.approx(1.0)


def test_pcfg_validates_normalization():
    with pytest.raises(EstimationError, match="sum to"):
        Pcfg("S", {P("S", "a"): 0.6, P("S", "b"): 0.6})
    with pytest.raises(EstimationError, match="negative"):
        Pcfg("S", {P("S", "a"): 1.5, P("S", "b"): -0.5})
    with pytest.raises(EstimationError, match="start"):
        Pcfg("X", {P("S", "a"): 1.0})


def test_normalization_tightened():
    g = Pcfg("S", {P("S", "a"): 0.5 + 3e-7, P("S", "b"): 0.5})
    assert sum(g.theta.values()) == pytest.approx(1.0, abs=1e-12)


def test_tree_log_prob(tiny_corpus):
    g = estimate_mle(extract_counts(tiny_corpus))
    assert tree_log_prob(g, t("(S (A a) (A a))")) == pytest.approx(math.log(0.5))
    # unknown rule -> -inf with a warning
    assert tree_log_prob(g, t("(S (B b) (B b))")) == float("-inf")


def test_inside_outside_unambiguous(tiny_corpus):
    g = estimate_mle(extract_counts(tiny_corpus))
    exp = inside_outside(g, ["a", "a"])
    assert exp.parsable
    assert exp.log_marginal == pytest.approx(math.log(0.5))
    assert exp.expected_counts[P("S", "A", "A")] == pytest.approx(1.0)
    assert exp.expected_counts[P("A", "a")] == pytest.approx(2.0)


def test_inside_outside_unparsable(tiny_corpus):
    g = estimate_mle(extract_counts(tiny_corpus))
    exp = inside_outside(g, ["b", "a"])
    assert not exp.parsable
    assert exp.expected_counts == {}


def test_inside_outside_empty_string(tiny_corpus):
    g = estimate_mle(extract_counts(tiny_corpus))
    with pytest.raises(EstimationError, match="empty"):
        inside_outside(g, [])


def test_inside_outside_nary_and_unary():
    corpus = Corpus([t("(S (X (A a)))"), t("(S (A a) (B b) (C c))")])
    g = estimate_mle(extract_counts(corpus))
    exp = inside_outside(g, ["a", "b", "c"])
    assert exp.log_marginal == pytest.approx(math.log(0.5))
    assert exp.expected_counts[P("S", "A", "B", "C")] == pytest.approx(1.0)
    exp1 = inside_outside(g, ["a"])
    assert exp1.log_marginal == pytest.approx(math.log(0.5))
    assert exp1.expected_counts[P("X", "A")] == pytest.approx(1.0)


def test_random_grammar_ignores_hash_seed():
    # the enumeration tests must check the same grammars on every run
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import random, oracles\n"
            "for seed in range(20):\n"
            "    g, _ = oracles.random_grammar(random.Random(seed))\n"
            "    print(g.start, sorted(g.theta.items()))\n")
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep
                   .join([os.path.join(os.path.dirname(here), "src"), here]))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   check=True, capture_output=True,
                                   text=True).stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 20


def test_mcle_ignores_hash_seed(tmp_path):
    """Every file each bundled pipeline writes, models included, is the
    same under two hash seeds, and each file of bench/reference/ is
    reproduced byte for byte.  (Each left-hand side's weights are summed
    in rule order, not set order.)"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    data = tmp_path / "data"
    toydata.write_all(str(data))
    corpora = {"pcfg-mle-vs-mcle": ("pcfg", ".mrg", "train test"),
               "hmm-four-way": ("hmm", ".tag", "train heldout test"),
               "sr-joint-vs-cond": ("sr", ".mrg", "train heldout test")}
    written = {}
    for pipeline, (prefix, ext, parts) in corpora.items():
        cfg = data / (pipeline + ".cfg")
        cfg.write_text(
            "[experiment]\npipeline = %s\noutput_dir = out\n[corpus]\n"
            % pipeline + "".join("%s = %s_%s%s\n" % (part, prefix, part, ext)
                                 for part in parts.split()))
        outs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / pipeline / hash_seed
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.join(root, "src"))
            subprocess.run([sys.executable, "-m", "condest.cli", "experiment",
                            str(cfg), "--output-dir", str(out)], cwd=data,
                           env=env, check=True, capture_output=True)
            outs.append({name: (out / name).read_bytes()
                         for name in sorted(os.listdir(out))})
        assert outs[0] == outs[1], pipeline
        written[pipeline] = outs[0]
        reference = os.path.join(root, "bench", "reference", pipeline)
        for name in os.listdir(reference):
            with open(os.path.join(reference, name), "rb") as f:
                assert outs[0][name] == f.read(), (pipeline, name)
    assert written["pcfg-mle-vs-mcle"]["cll_trace.txt"].count(b"\n") > 2


def test_inside_outside_matches_enumeration():
    for seed in range(5):
        rng = random.Random(seed)
        g, terms = random_grammar(rng)
        for n in range(1, 5):
            for bits in range(2 ** n):
                x = [terms[(bits >> i) & 1] for i in range(n)]
                want_lm, want_exp = brute_marginal_and_expectations(g, x)
                got = inside_outside(g, x)
                if want_lm == float("-inf"):
                    assert not got.parsable
                    continue
                assert got.log_marginal == pytest.approx(want_lm, abs=1e-10)
                for r in set(want_exp) | set(got.expected_counts):
                    assert got.expected_counts.get(r, 0.0) == pytest.approx(
                        want_exp.get(r, 0.0), abs=1e-10)


def _catalan_grammar(n):
    """``S -> S S`` (0.5) over 20 words (0.025 each), and an n-word string:
    every binary tree over the string has the same probability."""
    theta = {P("S", "S", "S"): 0.5}
    theta.update({P("S", "t%02d" % k): 0.025 for k in range(20)})
    return Pcfg("S", theta), ["t%02d" % (i % 20) for i in range(n)]


def test_inside_outside_long_sentence_does_not_underflow():
    # Z = Catalan(n - 1) * 0.5**(n - 1) * 0.025**n, about exp(-788): below
    # the smallest double.
    n = 260
    g, x = _catalan_grammar(n)
    exp = inside_outside(g, x)
    m = n - 1
    log_catalan = (math.lgamma(2 * m + 1) - math.lgamma(m + 2)
                   - math.lgamma(m + 1))
    want = log_catalan + m * math.log(0.5) + n * math.log(0.025)
    assert want < -745
    assert exp.log_marginal == pytest.approx(want, rel=1e-9)
    # every parse has n - 1 binary nodes and one lexical rule per word
    assert exp.expected_counts[P("S", "S", "S")] == pytest.approx(m, rel=1e-9)
    assert exp.expected_counts[P("S", "t07")] == pytest.approx(13, rel=1e-9)


@st.composite
def grammar_and_string(draw):
    """A random grammar (lexical, unary, binary and ternary rules, terminals
    inside binary rules; some without unary rules) and a 1-10 word string:
    a sampled yield of the grammar, or any string over "abc", which the
    grammar may not derive ("c" is in no grammar's vocabulary)."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g, _ = random_grammar(rng, draw(st.integers(2, 5)),
                          draw(st.integers(4, 12)), unary=draw(st.booleans()))
    if draw(st.booleans()):
        for _ in range(20):
            tree = sample_tree_from_grammar(g, rng)
            if tree is not None and len(tree_yield(tree)) <= 10:
                return g, tree_yield(tree)
    return g, draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=10))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=grammar_and_string())
@example(case=_catalan_grammar(260))
def test_inside_outside_matches_reference_bit_for_bit(case):
    g, x = case
    assert repr(inside_outside(g, x)) == repr(inside_outside_reference(g, x))


def test_cll_unambiguous_is_zero(tiny_corpus):
    g = estimate_mle(extract_counts(tiny_corpus))
    assert _cll(g, tiny_corpus) == pytest.approx(0.0)


def test_cll_gradient_zero_at_saturation():
    # observed rule frequencies equal the posterior expectations at the MLE
    corpus = Corpus([t("(S (A a) (A a))")] * 3 + [t("(S (B a) (B a))")])
    g = estimate_mle(extract_counts(corpus))
    grad = cll_gradient(g, corpus)
    for v in grad.values():
        assert v == pytest.approx(0.0, abs=1e-9)


def test_cll_gradient_refuses_a_tree_of_zero_probability(tiny_corpus):
    g = Pcfg("S", {P("S", "A", "A"): 1.0, P("S", "A", "B"): 0.0,
                   P("A", "a"): 1.0, P("B", "b"): 1.0})
    with pytest.raises(EstimationError, match="tree 1 is not derivable"):
        cll_gradient(g, tiny_corpus)


def test_cll_gradient_matches_finite_differences():
    h = 1e-6
    checked = 0
    for seed in range(30):
        rng = random.Random(100 + seed)
        g, _terms = random_grammar(rng)
        trees = []
        for _ in range(12):
            tr = sample_tree_from_grammar(g, rng)
            if tr is not None and len(tree_yield(tr)) <= 4:
                trees.append(tr)
            if len(trees) == 3:
                break
        if len(trees) < 3:
            continue
        corpus = Corpus(trees)
        grad = cll_gradient(g, corpus)
        for r in sorted(g.rules)[:3]:
            up = dict(g.theta)
            dn = dict(g.theta)
            up[r] += h
            dn[r] -= h
            fd = (raw_cll(g.start, up, corpus)
                  - raw_cll(g.start, dn, corpus)) / (2 * h)
            assert abs(fd - grad[r]) <= 1e-5 * max(1.0, abs(grad[r]))
            checked += 1
        if checked >= 15:
            break
    assert checked >= 15


def test_mcle_improves_cll_on_bundled_corpus():
    corpus = toydata.pcfg_train_corpus()
    mle = estimate_mle(extract_counts(corpus))
    trace = []
    mcle = estimate_mcle(corpus, mle, AscentConfig(max_iters=30), trace=trace)
    assert trace[-1] > trace[0]
    for a, b in zip(trace, trace[1:]):
        assert b >= a
    # joint likelihood = CLL + marginal; the MLE maximizes the sum, so a
    # strict CLL gain must come with a marginal loss
    _, marg_mle, _ = corpus_stats(mle, corpus)
    _, marg_mcle, _ = corpus_stats(mcle, corpus)
    assert marg_mcle < marg_mle


def _cll(g, corpus):
    """Sum over sentences of log P(y_i) - log sum_{y in tau(x_i)} P(y)."""
    tlp, marg, _ = corpus_stats(g, corpus)
    return tlp - marg


def test_mcle_fixed_point_at_saturation():
    corpus = Corpus([t("(S (A a) (A a))")] * 3 + [t("(S (B a) (B a))")])
    mle = estimate_mle(extract_counts(corpus))
    trace = []
    mcle = estimate_mcle(corpus, mle, AscentConfig(max_iters=20), trace=trace)
    assert _cll(mcle, corpus) == pytest.approx(trace[0])


# ---------------------------------------------------------------------------
# The corpus pass against the per-sentence reference (oracles).

# A rule multiset visited in two orders; two trees with one ordered rule
# count but two yields; two bracketings of one yield.
SHAPES = [t(s) for s in ("(S (X (X a) (X b)) (X a))",
                         "(S (X a) (X (X a) (X b)))",
                         "(S (X a) (X b) (X a))", "(S (X b) (X a) (X a))",
                         "(S (X (X a) (X a)) (X a))")]


def _bits(stats):
    """The pass's result as text that tells every float bit."""
    tlp, marg, expected = stats
    return repr((tlp, marg, sorted(expected.items())))


def test_shapes_cover_the_pass_cases():
    key = [tuple(tree_productions(s).items()) for s in SHAPES]
    yields = [tree_yield(s) for s in SHAPES]
    assert extract_counts([SHAPES[0]]).counts == extract_counts(
        [SHAPES[1]]).counts and key[0] != key[1]
    assert key[2] == key[3] and yields[2] != yields[3]
    assert yields[0] == yields[2] and key[0] != key[2]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), max_size=3),
       picks=st.lists(st.integers(0, 63), max_size=12))
def test_corpus_pass_matches_reference(seeds, picks):
    pool = SHAPES + [random_nary_tree(random.Random(s), max_children=3,
                                      max_depth=3) for s in seeds]
    # random picks, repeats likely, then every tree of the pool
    corpus = Corpus([pool[i % len(pool)] for i in picks] + pool)
    g = estimate_mle(extract_counts(corpus))
    assert _bits(corpus_stats(g, corpus)) == _bits(
        corpus_stats_reference(g, corpus))


def _a_chain(n):
    """``(R (A (A a) (A (A a) ...)))`` over n words, built without recursion."""
    node = Tree("A", [Tree("a")])
    for _ in range(n - 1):
        node = Tree("A", [Tree("A", [Tree("a")]), node])
    return Tree("R", [node])


# The unreachable B sets each span's scale, so A's inside values round
# toward zero on long strings (a known limit of the chart, not fixed): at
# 130 words the log marginal is finite but the counts are NaN (the
# RuntimeWarning below), and at 140 the yield reads unparsable.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n, failure", [
    (128, None), (130, "yield of tree 1 has non-finite expected counts"),
    (140, "yield of tree 1 is unparsable")])
def test_non_finite_expected_counts_are_refused(n, failure):
    g = Pcfg("R", {P("R", "A"): 1.0, P("A", "A", "A"): 0.001,
                   P("A", "a"): 0.999, P("B", "B", "B"): 0.5,
                   P("B", "a"): 0.5})
    corpus = Corpus([_a_chain(2), _a_chain(n), _a_chain(n)])
    if failure is None:
        _, marg, expected = corpus_stats(g, corpus)
        assert math.isfinite(marg)
        assert all(map(math.isfinite, expected.values()))
        assert all(map(math.isfinite, cll_gradient(g, corpus).values()))
        return
    for call in (lambda: corpus_stats(g, corpus),
                 lambda: cll_gradient(g, corpus),
                 lambda: estimate_mcle(corpus, g)):
        with pytest.raises(EstimationError) as e:
            call()
        assert str(e.value) == failure


def _failure(stats, g, corpus, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="condest.pcfg"):
        with pytest.raises(EstimationError) as e:
            stats(g, corpus)
    return str(e.value), [r.getMessage() for r in caplog.records]


def test_corpus_pass_errors_match_reference(caplog):
    aa, ab = t("(S (A a) (A a))"), t("(S (A a) (B b))")
    corpus = Corpus([aa, aa, ab, ab, aa])
    tiny = 5e-324   # the tree scores log(tiny); its inside value rounds to 0
    for g, failure in (
            (estimate_mle(extract_counts([aa])),
             ("tree 2 is not derivable under the grammar",
              ["tree uses rules absent from grammar: S -> A B; B -> b"])),
            (Pcfg("S", {P("S", "A", "A"): 1.0 - tiny, P("S", "A", "B"): tiny,
                        P("A", "a"): 1.0, P("B", "b"): 1.0}),
             ("yield of tree 2 is unparsable", []))):
        assert _failure(corpus_stats, g, corpus, caplog) == failure
        assert _failure(corpus_stats_reference, g, corpus, caplog) == failure


def test_bundled_mcle_fit_is_pinned(monkeypatch):
    corpus = toydata.pcfg_train_corpus()
    mle = estimate_mle(extract_counts(corpus))
    spies = {name: mock.Mock(wraps=getattr(pcfg, name))
             for name in ("tree_log_prob", "inside_outside")}
    for name, spy in spies.items():
        monkeypatch.setattr(pcfg, name, spy)
    trace = []
    g = estimate_mcle(corpus, mle, trace=trace)
    # 43 passes over 5 distinct trees and 4 distinct yields
    assert {name: spy.call_count for name, spy in spies.items()} == {
        "tree_log_prob": 215, "inside_outside": 172}
    monkeypatch.undo()
    passes = []

    class ReferencePass:
        """Stands in for the compiled treebank: each pass is the
        per-sentence reference."""

        def __init__(self, corpus):
            self.corpus = corpus

        def stats(self, g):
            passes.append(g)
            tlp, marg, expected = corpus_stats_reference(g, self.corpus)
            return tlp, marg, np.array([expected.get(r, 0.0)
                                        for r in g.rules])

    monkeypatch.setattr(pcfg, "_Treebank", ReferencePass)
    ref_trace = []
    ref = estimate_mcle(corpus, mle, trace=ref_trace)
    assert (len(passes), len(trace)) == (43, 8)
    assert repr(trace) == repr(ref_trace)
    assert repr(sorted(g.theta.items())) == repr(sorted(ref.theta.items()))


def _fit_matches_reference(corpus, init, cfg=None):
    """``estimate_mcle`` and ``oracles.estimate_mcle_reference`` give
    ``repr``-equal traces and grammars; returns the trace."""
    trace, ref_trace = [], []
    g = estimate_mcle(corpus, init, cfg, trace=trace)
    ref = estimate_mcle_reference(corpus, init, cfg, trace=ref_trace)
    assert repr(trace) == repr(ref_trace)
    assert repr(sorted(g.theta.items())) == repr(sorted(ref.theta.items()))
    return trace


def test_bundled_mcle_fit_matches_reference():
    corpus = toydata.pcfg_train_corpus()
    trace = _fit_matches_reference(corpus, estimate_mle(extract_counts(corpus)))
    assert len(trace) == 8


@pytest.mark.parametrize("seed", [41, 44])
def test_pcfg_scale_mcle_fit_matches_reference(seed, tmp_path):
    files, _ = bench_module("gen").gen_pcfg(seed, str(tmp_path))
    jobs = bench_module("jobs")
    train = jobs.load(files)["train"]
    trace = _fit_matches_reference(train, estimate_mle(extract_counts(train)),
                                   jobs.PCFG_ASCENT)
    assert len(trace) == jobs.PCFG_ASCENT.max_iters + 1


@st.composite
def mcle_case(draw):
    """A corpus of 1-8 trees sampled from a random grammar, a starting
    grammar (the generator or the corpus MLE) and an ascent config whose
    first step may be too long, so the line search shrinks."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    g, _ = random_grammar(rng, draw(st.integers(2, 4)),
                          draw(st.integers(6, 14)), unary=draw(st.booleans()))
    trees = [tree for tree in (sample_tree_from_grammar(g, rng)
                               for _ in range(draw(st.integers(1, 8))))
             if tree is not None and len(tree_yield(tree)) <= 8]
    assume(trees)
    if draw(st.booleans()):
        g = estimate_mle(extract_counts(trees))
    return Corpus(trees), g, AscentConfig(
        max_iters=draw(st.integers(1, 6)),
        initial_step=draw(st.sampled_from([0.1, 1.0, 10.0])))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=mcle_case())
def test_mcle_fit_matches_reference(case):
    _fit_matches_reference(*case)


def test_ascent_config_validation():
    with pytest.raises(ValueError):
        AscentConfig(max_iters=0)
    with pytest.raises(ValueError):
        AscentConfig(initial_step=0.0)


def test_viterbi_unambiguous(tiny_corpus):
    g = estimate_mle(extract_counts(tiny_corpus))
    assert viterbi_parse(g, ["a", "b"]) == t("(S (A a) (B b))")
    assert viterbi_parse(g, ["a", "a"]) == t("(S (A a) (A a))")
    assert viterbi_parse(g, ["b", "a"]) is None


def test_viterbi_nary_and_unary():
    corpus = Corpus([t("(S (X (A a)))"), t("(S (A a) (B b) (C c))")])
    g = estimate_mle(extract_counts(corpus))
    assert viterbi_parse(g, ["a", "b", "c"]) == t("(S (A a) (B b) (C c))")
    assert viterbi_parse(g, ["a"]) == t("(S (X (A a)))")


def test_viterbi_picks_most_probable():
    corpus = Corpus([t("(S (A a) (A a))")] * 3 + [t("(S (B a) (B a))")])
    g = estimate_mle(extract_counts(corpus))
    best = viterbi_parse(g, ["a", "a"])
    assert best == t("(S (A a) (A a))")
    assert tree_log_prob(g, best) == pytest.approx(math.log(0.75))


def test_viterbi_matches_enumeration():
    for seed in range(8):
        rng = random.Random(seed)
        g, terms = random_grammar(rng)
        for n in range(1, 6):
            for bits in range(2 ** n):
                x = [terms[(bits >> i) & 1] for i in range(n)]
                parses = enumerate_parses(g, x)
                got = viterbi_parse(g, x)
                if not parses:
                    assert got is None
                    continue
                assert got in parses
                assert tree_prob(g, got) == pytest.approx(
                    max(tree_prob(g, p) for p in parses), rel=1e-12)


def test_viterbi_tie_break():
    # Every parse of "a a a" scores 1/64 exactly.  S over "a a" ties A A
    # with B B (first rule wins); the root ties splits 1 and 2 (smallest
    # split wins).
    g = Pcfg("S", {P("S", "A", "A"): 0.25, P("S", "B", "B"): 0.25,
                   P("S", "S", "S"): 0.25, P("S", "a"): 0.25,
                   P("A", "a"): 1.0, P("B", "a"): 1.0})
    assert viterbi_parse(g, ["a", "a"]) == t("(S (A a) (A a))")
    assert viterbi_parse(g, ["a", "a", "a"]) == t("(S (S a) (S (A a) (A a)))")


def test_viterbi_empty_string(tiny_corpus):
    g = estimate_mle(extract_counts(tiny_corpus))
    with pytest.raises(EstimationError, match="empty"):
        viterbi_parse(g, [])


def test_viterbi_deep_parse():
    # the only parse of a^1050 is 1,050 nodes deep: no recursion may build it
    g = Pcfg("S", {P("S", "X"): 1.0, P("X", "a", "X"): 0.5,
                   P("X", "a", "Y"): 0.5, P("Y", "a"): 1.0})
    n = 1050
    assert write_tree(viterbi_parse(g, ["a"] * n)) == (
        "(S " + "(X a " * (n - 1) + "(Y a)" + ")" * n)


def test_grammar_round_trip(tmp_path, tiny_corpus):
    g = estimate_mle(extract_counts(tiny_corpus))
    path = tmp_path / "g.gram"
    save_grammar(g, path)
    g2 = load_grammar(path)
    assert g2.start == g.start
    assert g2.theta == g.theta


def test_load_grammar_errors(tmp_path):
    bad = tmp_path / "bad.gram"
    bad.write_text("[meta]\n[rules]\nS\tA A\t0.5\n")
    with pytest.raises(EstimationError, match="start"):
        load_grammar(bad)
    bad.write_text("[meta]\nstart\tS\n[rules]\nS - A\t1\n")
    with pytest.raises(EstimationError, match="malformed"):
        load_grammar(bad)
    bad.write_text("[meta]\nstart\tS\n[rules]\nS\ta\tnan\n")
    with pytest.raises(EstimationError, match="bad.gram:4"):
        load_grammar(bad)
    with pytest.raises(EstimationError, match="non-finite"):
        Pcfg("S", {Production("S", ("a",)): float("nan")})
