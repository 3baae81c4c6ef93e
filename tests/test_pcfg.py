import math
import os
import random
import subprocess
import sys

import pytest

from condest import toydata
from condest.pcfg import (AscentConfig, EstimationError, Pcfg, Production,
                          cll_gradient, corpus_stats, estimate_mcle,
                          estimate_mle, extract_counts, inside_outside, load_grammar, save_grammar,
                          tree_log_prob, tree_productions, viterbi_parse)
from condest.trees import Corpus, parse_trees, tree_yield
from oracles import (brute_marginal_and_expectations, enumerate_parses,
                     random_grammar, raw_cll, sample_tree_from_grammar,
                     tree_prob)


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


def test_inside_outside_long_sentence_does_not_underflow():
    # Every binary tree over the string has the same probability, so
    # Z = Catalan(n - 1) * 0.5**(n - 1) * 0.025**n, about exp(-788): below
    # the smallest double.
    n = 260
    theta = {P("S", "S", "S"): 0.5}
    theta.update({P("S", "t%02d" % k): 0.025 for k in range(20)})
    g = Pcfg("S", theta)
    x = ["t%02d" % (i % 20) for i in range(n)]
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
