"""Labelled bracket scoring and the bootstrap significance test.

Scoring is micro-averaged over the corpus (corpus-level matched / gold /
predicted totals), with multiset intersection of labelled spans per
sentence.  The bootstrap resamples sentences with replacement and uses the
F-score difference as the test statistic; the p-value is two-sided under
the shift convention: the proportion of resampled deltas at least as far
from the observed delta as the observed delta is from zero.
"""

import functools
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
    """Precision, recall and F as float64 arrays over count arrays of one
    shape.  An empty predicted (gold) set has precision (recall) 1, and
    P = R = 0 has F = 0; no branch divides by zero."""
    matched, gold, predicted = (np.asarray(x, dtype=float)
                                for x in (matched, gold, predicted))
    p = np.divide(matched, predicted, out=np.ones_like(matched),
                  where=predicted != 0)
    r = np.divide(matched, gold, out=np.ones_like(matched), where=gold != 0)
    s = p + r
    return p, r, np.divide(2 * p * r, s, out=np.zeros_like(s), where=s > 0)


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
    different lengths and a parse that does not yield its gold sentence,
    which it names by its 1-based number."""
    gold, pred = list(gold), list(pred)
    if len(gold) != len(pred):
        raise EvalError("gold and predicted corpora differ in length")
    for i, (g, p) in enumerate(zip(gold, pred), 1):
        if p is not None and tree_yield(g) != tree_yield(p):
            raise EvalError("sentence %d: terminal strings differ" % i)
    return np.array([sentence_stats(g, p) for g, p in zip(gold, pred)],
                    dtype=float).reshape(-1, 3)


def score_corpus(gold, pred):
    """Micro-averaged labelled precision/recall/F over aligned corpora
    (``sentence_rows``)."""
    matched, gtot, ptot = map(int, sentence_rows(gold, pred).sum(axis=0))
    prec, rec, f = map(float, _prf(matched, gtot, ptot))
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
    rows = np.hstack([sentence_rows(gold, pred_a),
                      sentence_rows(gold, pred_b)])
    n = len(rows)
    if not n:
        raise EvalError("empty corpus")
    bootstrap_iterations(iterations)
    bootstrap_seed(seed)

    def delta(sums):   # F(A) - F(B) from summed rows, one per column
        return _prf(*sums[:3])[2] - _prf(*sums[3:])[2]

    observed = delta(rows.sum(axis=0))
    extreme = 0
    for counts in resampled_counts(n, iterations, seed):
        extreme += int(np.count_nonzero(
            np.abs(delta((counts @ rows).T) - observed) >= abs(observed)))
    return BootstrapResult(extreme / iterations, iterations, seed,
                           float(observed))


# ---------------------------------------------------------------------------
# The resampler.  Iteration ``it`` draws the sentence indices
# ``np.random.default_rng((seed, it)).integers(0, n, n)``.  For seed and
# ``it`` below 2**32 the same draws are computed for a block of iterations
# at once, in uint32/uint64 array arithmetic that follows numpy's steps:
#   - SeedSequence((seed, it)) hashes the entropy words [seed, it] into a
#     pool of four uint32 words, and generate_state(4, uint64) hashes the
#     pool into eight words w0..w7;
#   - PCG64 takes the 128-bit state (w1 w0 w3 w2) and increment
#     (w5 w4 w7 w6), high limb first, seeds as state = (inc + state) * A + inc
#     with inc = 2 * increment + 1, then outputs XSL-RR of state = state * A
#     + inc per 64-bit draw;
#   - integers(0, n, n) takes 32-bit words, the low half of each draw
#     first, and maps word u to (u * n) >> 32 (Lemire), except that numpy
#     draws a new word while (u * n) mod 2**32 < (2**32 - n) mod n.
# An iteration with such a rejection is drawn by numpy instead, as are
# iterations whose seed or number is 2**32 or more (their entropy is
# longer), and every iteration of a test set over _VECTOR_MAX_N sentences
# or after a failed check against numpy's own draws.

_M32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Sentence indices drawn per block: a block's arrays peak below 1 MB.
_BLOCK = 1 << 14
# The vector stream costs tens of ns a draw and numpy about 5, but numpy
# spends 20-30 us building each generator.  Per iteration on a 2-core
# x86-64 host, the vector stream took 0.79-0.91 of numpy's time at 512
# sentences, 1.07-1.21 at 640 and 2.3-2.6 at 2,416 (BENCH_20.json), so
# larger test sets draw with numpy.
_VECTOR_MAX_N = 512


def _mul_add_128(terms):
    """sum(a * b for a, b in terms) mod 2**128, each value a (high, low)
    pair of broadcastable uint64 arrays; uint64 products wrap mod 2**64,
    and the high half of a low-by-low product comes from 32-bit halves."""
    shape = np.broadcast_shapes(
        *(x.shape for term in terms for value in term for x in value))
    # bits 0-31 and 32-63 (sums below 2**36), and bits 64-127 mod 2**64
    lo32, mid, hi = cols = np.zeros((3,) + shape, dtype=np.uint64)
    for (ah, al), (bh, bl) in terms:
        a, b = (al & _M32, al >> 32), (bl & _M32, bl >> 32)
        for i, j in ((0, 0), (0, 1), (1, 0)):
            p = a[i] * b[j]
            cols[i + j] += p & _M32
            p >>= 32
            cols[i + j + 1] += p
        hi += a[1] * b[1]
        hi += ah * bl
        hi += al * bh
    mid += lo32 >> 32
    hi += mid >> 32
    mid <<= 32
    lo32 &= _M32
    return hi, mid | lo32


@functools.cache
def _pcg_steps(draws):
    """(A**(k+2), 1 + A + ... + A**(k+2)) mod 2**128 for the PCG64
    multiplier A and each 64-bit draw k < ``draws``, each as a (high, low)
    pair of uint64 arrays."""
    powers, sums = [], []
    a, s = _PCG_MULT, 1 + _PCG_MULT
    for _ in range(draws):
        a = a * _PCG_MULT % 2 ** 128
        s = (s + a) % 2 ** 128
        powers.append(a)
        sums.append(s)
    return tuple(tuple(np.array([v >> shift & 2 ** 64 - 1 for v in values],
                                dtype=np.uint64) for shift in (64, 0))
                 for values in (powers, sums))


def _seed_words(seed, its):
    """``SeedSequence((seed, it)).generate_state(4, np.uint64)`` for each
    ``it`` in the uint32 array ``its``, as eight uint32 arrays w0..w7."""
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ (r >> 16)

    zero = np.zeros_like(its)
    pool = [hashmix(v) for v in (zero + np.uint32(seed), its, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> 16))
    return words


def _vector_draws(seed, its, n):
    """``default_rng((seed, it)).integers(0, n, n)`` for each ``it`` in the
    uint32 array ``its``, as a (len(its), n) uint64 array, and a boolean
    array marking the iterations where numpy's draw rejects a word (their
    rows here are not numpy's)."""
    w = [x.astype(np.uint64)[:, None] for x in _seed_words(seed, its)]
    state = (w[0] | w[1] << 32, w[2] | w[3] << 32)
    inc_hi, inc_lo = w[4] | w[5] << 32, w[6] | w[7] << 32
    inc = (inc_hi << 1 | inc_lo >> 63, inc_lo << 1 | 1)
    # seeding leaves state (state + inc) * A + inc, so 64-bit draw k comes
    # from state A**(k+2) * state + (1 + A + ... + A**(k+2)) * inc
    powers, sums = _pcg_steps((n + 1) // 2)
    hi, lo = _mul_add_128([(state, powers), (inc, sums)])
    rot = hi >> 58
    hi ^= lo
    lo = (hi >> rot) | (hi << ((64 - rot) & 63))   # XSL-RR
    # each draw's low 32-bit half first: its little-endian uint32 view
    words = lo.astype("<u8", copy=False).view("<u4")[:, :n]
    # the leftover (u * n) mod 2**32 is the uint32 product
    rejected = (words * np.uint32(n) < (2 ** 32 - n) % n).any(axis=1)
    draws = words.astype(np.uint64)
    draws *= n
    draws >>= 32
    return draws, rejected


@functools.cache
def _vector_stream_ok():
    """Whether ``_vector_draws`` reproduces numpy's draws on a small case;
    checked on first use, once per process."""
    seed, its, n = 2 ** 32 - 1, [0, 1, 2 ** 32 - 1], 7
    draws, rejected = _vector_draws(seed, np.array(its, dtype=np.uint32), n)
    return not rejected.any() and all(
        np.array_equal(row, np.random.default_rng((seed, it)).integers(
            0, n, n)) for row, it in zip(draws, its))


def resampled_counts(n, iterations, seed):
    """Blocks of per-iteration resampling counts, in iteration order: row
    ``it`` counts how often each of ``n`` sentences is drawn by
    ``np.random.default_rng((seed, it)).integers(0, n, n)``.  A block holds
    at most ``_BLOCK`` draws, or one iteration's if ``n`` is larger."""
    vector = seed < 2 ** 32 and n <= _VECTOR_MAX_N and _vector_stream_ok()
    per_block = max(1, _BLOCK // n)
    for start in range(0, iterations, per_block):
        its = np.arange(start, min(start + per_block, iterations))
        if vector:   # numbers from 2**32 on wrap in uint32; numpy draws them
            draws, redraw = _vector_draws(seed, its.astype(np.uint32), n)
            redraw |= its >= 2 ** 32
        else:
            draws = np.empty((len(its), n), dtype=np.uint64)
            redraw = np.ones(len(its), dtype=bool)
        for row in np.flatnonzero(redraw):
            draws[row] = np.random.default_rng(
                (seed, int(its[row]))).integers(0, n, n)
        draws = draws.view(np.int64)
        draws += np.arange(0, len(its) * n, n)[:, None]
        yield np.bincount(draws.ravel(), minlength=len(its) * n).reshape(-1, n)
