"""Labelled bracket scoring and the bootstrap significance test.

Scoring is micro-averaged over the corpus (corpus-level matched / gold /
predicted totals), with multiset intersection of labelled spans per
sentence.  The bootstrap resamples sentences with replacement and uses the
F-score difference as the test statistic; the p-value is two-sided under
the shift convention: the proportion of resampled deltas at least as far
from the observed delta as the observed delta is from zero.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .trees import tree_yield


class EvalError(ValueError):
    pass


def brackets(t):
    """Multiset of (start, end, label) spans, one per internal node, walked
    without recursion so a tree of any depth scores."""
    spans, todo, opened, i = [], [t], [], 0   # opened: (start, label)
    while todo:
        node = todo.pop()
        if node is None:   # the children of opened[-1] are done
            start, label = opened.pop()
            spans.append((start, i, label))
        elif node.children:
            opened.append((i, node.label))
            todo.append(None)
            todo.extend(reversed(node.children))
        else:
            i += 1
    return Counter(spans)


@dataclass
class EvalReport:
    precision: float
    recall: float
    f_score: float
    matched: int
    gold_total: int
    predicted_total: int


def _prf(matched, gold, predicted):
    p = matched / predicted if predicted else 1.0
    r = matched / gold if gold else 1.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def sentence_stats(gold_tree, pred_tree):
    """(matched, gold, predicted) bracket counts for one sentence; a failed
    parse (pred None) contributes an empty predicted set."""
    g = brackets(gold_tree)
    if pred_tree is None:
        return 0, sum(g.values()), 0
    p = brackets(pred_tree)
    matched = sum((g & p).values())
    return matched, sum(g.values()), sum(p.values())


def sentence_rows(gold, pred):
    """Each sentence's ``sentence_stats`` as one float row, shape (n, 3),
    over aligned corpora: ``gold`` and ``pred`` are sequences of trees, and
    predicted entries may be None for failed parses.  Refuses corpora of
    different lengths and a parse that does not yield its gold sentence."""
    gold, pred = list(gold), list(pred)
    if len(gold) != len(pred):
        raise EvalError("gold and predicted corpora differ in length")
    for i, (g, p) in enumerate(zip(gold, pred)):
        if p is not None and tree_yield(g) != tree_yield(p):
            raise EvalError("sentence %d: terminal strings differ" % i)
    return np.array([sentence_stats(g, p) for g, p in zip(gold, pred)],
                    dtype=float).reshape(-1, 3)


def score_corpus(gold, pred):
    """Micro-averaged labelled precision/recall/F over aligned corpora
    (``sentence_rows``)."""
    matched, gtot, ptot = map(int, sentence_rows(gold, pred).sum(axis=0))
    prec, rec, f = _prf(matched, gtot, ptot)
    return EvalReport(prec, rec, f, matched, gtot, ptot)


@dataclass
class BootstrapResult:
    p_value: float
    iterations: int
    seed: int
    observed_delta_f: float


def bootstrap_iterations(iterations):
    """``iterations`` if it is a usable bootstrap iteration count."""
    if iterations < 1:
        raise EvalError("iterations must be >= 1")
    return iterations


def bootstrap_seed(seed):
    """``seed`` if it is a usable bootstrap seed."""
    if seed < 0:
        raise EvalError("seed must be >= 0")
    return seed


def bootstrap_test(gold, pred_a, pred_b, iterations=10000, seed=0):
    """Bootstrap test of the F-score difference F(A) - F(B), each system
    aligned with ``gold`` as ``sentence_rows`` requires.

    Sentences are resampled with replacement using a per-iteration seed
    derived from (seed, iteration), so results are deterministic for a
    fixed seed regardless of execution order or parallelism.
    """
    stats_a = sentence_rows(gold, pred_a)
    stats_b = sentence_rows(gold, pred_b)
    n = len(stats_a)
    if not n:
        raise EvalError("empty corpus")
    bootstrap_iterations(iterations)
    bootstrap_seed(seed)

    def delta(idx):
        ma, ga, pa = stats_a[idx].sum(axis=0)
        mb, gb, pb = stats_b[idx].sum(axis=0)
        return _prf(ma, ga, pa)[2] - _prf(mb, gb, pb)[2]

    observed = delta(np.arange(n))
    extreme = 0
    for it in range(iterations):
        rng = np.random.default_rng((seed, it))
        idx = rng.integers(0, n, n)
        if abs(delta(idx) - observed) >= abs(observed):
            extreme += 1
    return BootstrapResult(extreme / iterations, iterations, seed, observed)
