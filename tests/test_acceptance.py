"""Acceptance gate: one test per criterion, each printing a pass/fail line.

These are end-to-end checks against independent oracles (exhaustive
enumeration, finite differences) plus directionality, determinism and
runtime budgets on the bundled corpora.
"""

import filecmp
import math
import os
import random
import time

import numpy as np

from condest import cli, toydata
from condest.evaluation import bootstrap_test, score_corpus
from condest.hmm import (VARIANTS, TaggerModel, collect_tables,
                         fit_deleted_interpolation)
from condest.pcfg import (AscentConfig, cll_gradient, estimate_mcle,
                          estimate_mle, extract_counts, inside_outside,
                          corpus_stats)
from condest.shiftreduce import (STAR, BeamConfig, Move, beam_parse,
                                 estimate_conditional, estimate_joint,
                                 oracle_moves, parse_corpus, reduce1, reduce2,
                                 shift, tree_from_moves)
from condest.trees import (Corpus, HeadRules, binarize, debinarize,
                           parse_trees, tree_yield, write_bracketed)
from oracles import (brute_marginal_and_expectations, brute_sr_best,
                     brute_tag_decode, brute_tag_marginals, random_binary_tree,
                     random_grammar, random_nary_tree, raw_cll,
                     sample_tree_from_grammar)


def _verdict(name, ok):
    print("%s: %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


def _all_strings(terms, max_len):
    for n in range(1, max_len + 1):
        for bits in range(len(terms) ** n):
            s, x = bits, []
            for _ in range(n):
                x.append(terms[s % len(terms)])
                s //= len(terms)
            yield x


def test_criterion_01_inside_outside_vs_enumeration():
    start = time.monotonic()
    ok = True
    for seed in range(20):
        g, terms = random_grammar(random.Random(seed))
        for x in _all_strings(terms, 5):
            want_lm, want_exp = brute_marginal_and_expectations(g, x)
            got = inside_outside(g, x)
            if want_lm == float("-inf"):
                ok = ok and not got.parsable
                continue
            ok = ok and abs(got.log_marginal - want_lm) <= 1e-10
            for r in set(want_exp) | set(got.expected_counts):
                ok = ok and abs(got.expected_counts.get(r, 0.0)
                                - want_exp.get(r, 0.0)) <= 1e-10
    elapsed = time.monotonic() - start
    _verdict("criterion 1: inside-outside matches exhaustive enumeration "
             "(20 grammars, strings <= 5, 1e-10, %.1fs < 10s)" % elapsed,
             ok and elapsed < 10.0)


def test_criterion_02_cll_gradient_vs_finite_differences():
    h = 1e-6
    instances = 0
    ok = True
    seed = 0
    while instances < 20 and seed < 200:
        seed += 1
        rng = random.Random(1000 + seed)
        g, _terms = random_grammar(rng)
        trees = []
        for _ in range(15):
            tr = sample_tree_from_grammar(g, rng)
            if tr is not None and len(tree_yield(tr)) <= 4:
                trees.append(tr)
            if len(trees) == 3:
                break
        if len(trees) < 3:
            continue
        corpus = Corpus(trees)
        grad = cll_gradient(g, corpus)
        for r in g.rules:
            up, dn = dict(g.theta), dict(g.theta)
            up[r] += h
            dn[r] -= h
            fd = (raw_cll(g.start, up, corpus)
                  - raw_cll(g.start, dn, corpus)) / (2 * h)
            ok = ok and abs(fd - grad[r]) <= 1e-5 * max(1.0, abs(grad[r]))
        instances += 1
    _verdict("criterion 2: CLL gradient matches central finite differences "
             "(%d instances, h=1e-6, 1e-5 relative)" % instances,
             ok and instances >= 20)


def test_criterion_03_mcle_directionality():
    start = time.monotonic()
    corpus = toydata.pcfg_train_corpus()
    mle = estimate_mle(extract_counts(corpus))
    trace = []
    mcle = estimate_mcle(corpus, mle, AscentConfig(), trace=trace)
    monotone = all(b >= a for a, b in zip(trace, trace[1:]))
    _, marg_mle, _ = corpus_stats(mle, corpus)
    _, marg_mcle, _ = corpus_stats(mcle, corpus)
    elapsed = time.monotonic() - start
    _verdict("criterion 3: MCLE raises conditional likelihood "
             "(%.4f -> %.4f), lowers the marginal (%.4f -> %.4f), "
             "monotone trace, %.1fs < 30s"
             % (trace[0], trace[-1], marg_mle, marg_mcle, elapsed),
             trace[-1] > trace[0] and marg_mcle < marg_mle and monotone
             and elapsed < 30.0)


def test_criterion_04_tagger_lattice_vs_brute_force():
    train, heldout, test = toydata.hmm_corpora(n_train=80, n_heldout=30,
                                               n_test=30)
    short = [(w[:4], t[:4]) for w, t in test][:8]
    ok = True
    for variant in VARIANTS:
        model = TaggerModel.train(variant, train, heldout)
        for words, _tags in short:
            marg = model.posterior_marginals(words)
            bmarg = brute_tag_marginals(model, words)
            for j, d in enumerate(bmarg):
                for i, tag in enumerate(model.tables.tagset):
                    ok = ok and abs(marg[j, i] - d.get(tag, 0.0)) <= 1e-10
            ok = ok and model.posterior_decode(words) == \
                brute_tag_decode(model, words)
    _verdict("criterion 4: all four tagging variants match brute-force "
             "marginals (1e-10) and decodes", ok)


def test_criterion_05_deleted_interpolation():
    train, heldout = toydata.xor_tagged_corpora()
    tables = collect_tables(train)
    mix = fit_deleted_interpolation(tables, heldout, "pr0")
    ok = bool(mix.lambdas)
    for lam in mix.lambdas.values():
        ok = ok and abs(sum(lam) - 1.0) <= 1e-12
        ok = ok and all(l >= 0.0 for l in lam)
        ok = ok and lam[2] > 0.95
    ok = ok and all(b >= a - 1e-9 for a, b in zip(mix.trace, mix.trace[1:]))
    _verdict("criterion 5: interpolation weights on the simplex (1e-12), "
             "monotone EM trace, full-context weight > 0.95 on the XOR "
             "corpus (buckets %s)" % sorted(mix.lambdas), ok)


def test_criterion_06_structural_zeros():
    def t(s):
        return parse_trees(s)[0]

    train = Corpus([t("(S (A a) (B b))"), t("(S (A a) (A a))")])
    joint = estimate_joint(train)
    cond = estimate_conditional(train, train)
    # poison the counts with every move in every context; masking must
    # filter all structurally-impossible ones back out
    symbols = [STAR, "S", "A", "B", "a", "b"]
    all_moves = [shift("a"), shift("b"), shift(STAR),
                 reduce1("A"), reduce1("S"), reduce2("S"), reduce2("B")]
    for s1 in symbols:
        for s2 in symbols:
            for mv in all_moves:
                joint.joint_table.add((s1, s2), mv)
                cond.joint_table.add((s1, s2), mv)
                for la in symbols:
                    cond.cond_mixture.components[1][0].add((s1, s2, la), mv)
    ok = True
    for model in (joint, cond):
        for s1 in symbols:
            for s2 in symbols:
                for la in symbols:
                    probs = model.move_probs(s1, s2, lookahead=la)
                    if probs:
                        ok = ok and abs(sum(probs.values()) - 1.0) <= 1e-12
                    for mv in all_moves:
                        allowed = model.allowed(mv, s1, s2, la)
                        want = {
                            "reduce1": s1 != STAR,
                            "reduce2": s2 != STAR,
                        }.get(mv.kind)
                        if want is None:  # shift
                            if mv.label == STAR:
                                want = s1 == model.start and s2 == STAR
                            elif model.flavor == "conditional":
                                want = mv.label == la
                            else:
                                want = True
                        ok = ok and allowed == want
                        if not allowed:
                            ok = ok and mv not in probs
    _verdict("criterion 6: structural zeros enforced exhaustively over all "
             "contexts for joint and conditional models", ok)


def test_criterion_07_beam_matches_brute_force_argmax():
    cfg = BeamConfig(threshold=1e-12, require_observed_pairs=False)
    rng = random.Random(42)
    trials = matches = 0
    while trials < 100:
        trees = []
        for _ in range(5):
            n = rng.randint(1, 3)
            trees.append(random_binary_tree(
                rng, [rng.choice("ab") for _ in range(n)]))
        model = estimate_joint(Corpus(trees))
        words = [rng.choice("ab") for _ in range(rng.randint(1, 3))]
        want = brute_sr_best(model, words)
        got = beam_parse(model, words, cfg)
        trials += 1
        if want is None:
            matches += got is None
        else:
            matches += got == tree_from_moves(list(want[0]))
    _verdict("criterion 7: wide-open beam equals brute-force argmax "
             "(%d/100 random trials, strings <= 3)" % matches,
             matches == 100)


def test_criterion_08_round_trips():
    rng = random.Random(8)
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 7)
        tree = random_binary_tree(rng, [rng.choice("abc") for _ in range(n)])
        ok = ok and tree_from_moves(oracle_moves(tree)) == tree
    rules = HeadRules()
    for _ in range(1000):
        tree = random_nary_tree(rng)
        ok = ok and debinarize(binarize(tree, rules)) == tree
    _verdict("criterion 8: 1000 oracle-move round trips and 1000 "
             "debinarize(binarize(t)) identities", ok)


def test_criterion_09_beam_threshold_insensitivity():
    start = time.monotonic()
    train, heldout, test = toydata.sr_corpora()
    btrain = Corpus([binarize(t) for t in train])
    bheldout = Corpus([binarize(t) for t in heldout])
    sentences = [tree_yield(t) for t in test]
    gold = list(test)
    fs = {}
    for name, model in (("joint", estimate_joint(btrain)),
                        ("cond", estimate_conditional(btrain, bheldout))):
        for thr in (1e-6, 1e-9):
            pred, _failures = parse_corpus(model, sentences,
                                           BeamConfig(threshold=thr))
            fs[(name, thr)] = score_corpus(gold, pred).f_score
    ok = (abs(fs[("joint", 1e-6)] - fs[("joint", 1e-9)]) <= 0.01
          and abs(fs[("cond", 1e-6)] - fs[("cond", 1e-9)]) <= 0.01)
    elapsed = time.monotonic() - start
    _verdict("criterion 9: beam 1e-6 vs 1e-9 F within 0.01 on the bundled "
             "treebank (joint %.4f/%.4f, cond %.4f/%.4f, %.1fs < 60s)"
             % (fs[("joint", 1e-6)], fs[("joint", 1e-9)],
                fs[("cond", 1e-6)], fs[("cond", 1e-9)], elapsed),
             ok and elapsed < 60.0)


def test_criterion_10_bootstrap():
    def t(s):
        return parse_trees(s)[0]

    gold = [t("(S (A a) (B b))") if i % 2 else t("(S (A a) (A a))")
            for i in range(40)]
    same = bootstrap_test(gold, list(gold), list(gold), iterations=10000,
                          seed=0)
    pred_b = [g if i % 4 == 0 else None for i, g in enumerate(gold)]
    dom = bootstrap_test(gold, list(gold), pred_b, iterations=10000, seed=0)
    rerun = bootstrap_test(gold, list(gold), pred_b, iterations=10000, seed=0)
    ok = (same.p_value >= 0.5 and dom.p_value < 0.01 and dom == rerun)
    _verdict("criterion 10: bootstrap p=%.3f >= 0.5 for identical systems, "
             "p=%.4f < 0.01 for a dominating system, seed-deterministic"
             % (same.p_value, dom.p_value), ok)


def test_criterion_11_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    toydata.write_all(str(data))
    configs = {
        "pcfg-mle-vs-mcle": """
[corpus]
train = %s
test = %s
""" % (data / "pcfg_train.mrg", data / "pcfg_test.mrg"),
        "hmm-four-way": """
[corpus]
train = %s
heldout = %s
test = %s
""" % (data / "hmm_train.tag", data / "hmm_heldout.tag",
            data / "hmm_test.tag"),
        "sr-joint-vs-cond": """
[corpus]
train = %s
heldout = %s
test = %s
""" % (data / "sr_train.mrg", data / "sr_heldout.mrg", data / "sr_test.mrg"),
    }
    ok = True
    times = []
    for pipeline, body in configs.items():
        elapsed = 0.0
        for run in ("run1", "run2"):
            out = tmp_path / pipeline / run
            cfg = tmp_path / ("%s_%s.cfg" % (pipeline, run))
            cfg.write_text("[experiment]\npipeline = %s\nseed = 0\n"
                           "output_dir = %s\n%s" % (pipeline, out, body))
            start = time.monotonic()
            ok = ok and cli.main(["experiment", str(cfg)]) == 0
            elapsed = max(elapsed, time.monotonic() - start)
        a, b = tmp_path / pipeline / "run1", tmp_path / pipeline / "run2"
        names = sorted(os.listdir(a))
        ok = ok and names == sorted(os.listdir(b))
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        ok = ok and not mismatch and not errors and len(match) == len(names)
        ok = ok and elapsed < 60.0
        times.append("%s %.1fs" % (pipeline, elapsed))
    _verdict("criterion 11: all three pipelines byte-identical across "
             "repeated seeded runs (%s, each < 60s)" % ", ".join(times), ok)
