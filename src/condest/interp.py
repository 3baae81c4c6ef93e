"""Empirical conditional distributions and deleted-interpolation smoothing.

Shared between the tagging models (three-way mixtures over tags) and the
conditional shift-reduce parser (two-way mixtures over moves).  Mixture
weights are tied across contexts bucketed by frequency and fitted on
heldout data by EM on the weight simplex.
"""

import functools
import math
from collections import defaultdict

import numpy as np

BUCKET_CAP = 16


def bucket_id(count):
    """Frequency bucket: floor(log2(count + 1)), capped at BUCKET_CAP."""
    return min(BUCKET_CAP, int(math.floor(math.log2(count + 1))))


def bucket_ids(counts):
    """``bucket_id`` of each count in an array."""
    distinct, inverse = np.unique(counts, return_inverse=True)
    return np.array([bucket_id(c) for c in distinct.tolist()],
                    dtype=np.intp)[inverse]


def _first_seen(codes):
    """Each code's id when distinct codes are numbered in order of first
    appearance, and the distinct codes in that order."""
    order = np.argsort(codes)
    new = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[order[1:]], codes[order[:-1]], out=new[1:])
    ids = np.empty(len(codes), dtype=np.intp)
    ids[order] = np.cumsum(new) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(new)) if len(codes) \
        else order
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.intp)
    rank[by_first] = np.arange(len(first))
    return rank[ids], codes[first[by_first]]


def _count_pairs(rows, cols, weights=None):
    """Count integer-coded (row, column) pairs: (row codes, ptr, cols,
    counts, totals), rows and each row's columns in order of first
    appearance, row r's entries at ``ptr[r]:ptr[r+1]``.  Each pair adds
    its weight (default 1) to its count and its row's total, one at a
    time in input order."""
    cols = np.asarray(cols, dtype=np.int64)
    width = int(cols.max(initial=0)) + 1
    pair, codes = _first_seen(np.asarray(rows, dtype=np.int64) * width + cols)
    row, row_codes = _first_seen(codes // width)
    entry = np.argsort(row * len(row) + np.arange(len(row)))
    weights = np.ones(len(cols)) if weights is None else weights
    return (row_codes, np.append(0, np.cumsum(np.bincount(row))),
            codes[entry] % width, np.bincount(pair, weights)[entry],
            np.bincount(row[pair], weights))


class CondTable:
    """Empirical conditional distribution P(outcome | context), counts of
    (context, outcome) pairs in an integer-coded, CSR-like form.  Row r is
    the r-th context in order of first appearance; its entries
    ``ptr[r]:ptr[r+1]`` are outcome ids with their counts, in order of
    first appearance.  One more row, empty, stands for unseen contexts."""

    def __init__(self, pairs=(), weights=None):
        """Count ``pairs``, pair i adding ``weights[i]`` if given."""
        ctx_ids, out_ids, rows, cols = {}, {}, [], []
        for ctx, out in pairs:
            rows.append(ctx_ids.setdefault(ctx, len(ctx_ids)))
            cols.append(out_ids.setdefault(out, len(out_ids)))
        self._load(list(ctx_ids), list(out_ids),
                   *_count_pairs(rows, cols, weights)[1:])

    @classmethod
    def from_codes(cls, rows, cols, contexts, outcomes):
        """Count coded pairs: ``contexts(codes)`` lists the contexts of
        row codes, ``outcomes[c]`` is the outcome of column code c.  The
        contexts are listed when first needed."""
        codes, *counted = _count_pairs(rows, cols)
        table = cls.__new__(cls)
        table._load(functools.partial(contexts, codes), outcomes, *counted)
        return table

    def _load(self, ctxs, outcomes, ptr, cols, counts, totals):
        used, cols = np.unique(cols, return_inverse=True)
        self._ctxs, self._outs = ctxs, [outcomes[c] for c in used.tolist()]
        self._ptr, self._cols = np.append(ptr, ptr[-1]), cols
        self._counts, self._totals = counts, np.append(totals, 0.0)
        tot = np.repeat(self._totals, np.diff(self._ptr))
        self._probs = np.divide(counts, tot, out=np.zeros(len(counts)),
                                where=tot > 0.0)
        self._row = None

    def add(self, ctx, out, k=1.0):
        """Add ``k`` to the count of (ctx, out), merged into the arrays at
        once; counts and totals go on adding in call order."""
        totals = dict(zip(self._contexts(), self._totals.tolist()))
        totals[ctx] = totals.get(ctx, 0.0) + k
        rows = [*self.items(), (ctx, out, k)]
        new = CondTable([(c, o) for c, o, _k in rows], [k for *_p, k in rows])
        self._load(new._ctxs, new._outs, new._ptr[:-1], new._cols,
                   new._counts, [totals[c] for c in new._ctxs])

    def _contexts(self):
        if callable(self._ctxs):
            self._ctxs = self._ctxs()
        return self._ctxs

    def _rows(self):
        if self._row is None:
            self._row = {c: r for r, c in enumerate(self._contexts())}
        return self._row

    def rows(self, ctxs):
        """The row of each context, the empty row for an unseen one."""
        row, empty = self._rows(), len(self._totals) - 1
        return np.array([row.get(c, empty) for c in ctxs], dtype=np.intp)

    def row_totals(self):
        return self._totals

    def _entries(self, rows):
        """Each entry of ``rows`` in turn: its row's place there, its index."""
        start, size = self._ptr[rows], np.diff(self._ptr)[rows]
        which = np.repeat(np.arange(len(rows)), size)
        return which, np.arange(len(which)) + np.repeat(
            start - np.cumsum(size) + size, size)

    def prob(self, ctx, out):
        return self.dist(ctx).get(out, 0.0)

    def probs(self, ctxs, outs):
        """``prob`` of each (context, outcome) pair, as one array."""
        which, entry = self._entries(self.rows(ctxs))
        ids = {o: i for i, o in enumerate(self._outs)}
        hit = self._cols[entry] == np.array([ids.get(o, -1) for o in outs],
                                            dtype=np.intp)[which]
        out = np.zeros(len(outs))
        out[which[hit]] = self._probs[entry[hit]]
        return out

    def total(self, ctx):
        return float(self.row_totals()[self.rows([ctx])[0]])

    def dist(self, ctx):
        r = self._rows().get(ctx)
        if r is None or self._totals[r] <= 0.0:
            return {}
        a, b = self._ptr[r], self._ptr[r + 1]
        return {self._outs[c]: p for c, p in zip(self._cols[a:b].tolist(),
                                                 self._probs[a:b].tolist())}

    def matrix(self, ctxs, index):
        """``prob`` over ``ctxs`` × outcomes as one array; ``index`` maps an
        outcome to its column, and other outcomes are left out.  ``ctxs``
        None stands for every row, the empty row last."""
        rows = (np.arange(len(self._totals)) if ctxs is None
                else self.rows(ctxs))
        which, entry = self._entries(rows)
        col = np.array([index.get(o, -1) for o in self._outs],
                       dtype=np.intp)[self._cols[entry]]
        out = np.zeros((len(rows), len(index)))
        out[which[col >= 0], col[col >= 0]] = self._probs[entry[col >= 0]]
        return out

    def contexts(self):
        return self._rows().keys()

    def items(self):
        ptr, cols = self._ptr.tolist(), self._cols.tolist()
        counts = self._counts.tolist()
        for r, ctx in enumerate(self._contexts()):
            for e in range(ptr[r], ptr[r + 1]):
                yield ctx, self._outs[cols[e]], counts[e]


def fit_mixture_weights(buckets, probs, max_iters=100, tol=1e-7):
    """EM for bucket-tied mixture weights.

    ``buckets`` holds one int bucket per heldout event, and row i of the
    (events × k) array ``probs`` holds each component's probability of
    event i's observed outcome.  Events whose component probabilities are
    all zero are skipped.

    Returns (lambdas, trace): ``lambdas`` maps bucket -> k-tuple on the
    simplex; ``trace`` is the per-iteration heldout log-likelihood, which
    is non-decreasing.  Buckets with no usable events get uniform weights.

    Each iteration is one update over the distinct (bucket, probs) rows,
    whose logs and ratios are then gathered to the events, grouped by
    bucket (buckets in order of first appearance, events in input order).
    Every sum adds its terms one at a time in that order, so the results
    are bit for bit those of a plain loop over each bucket's events.
    """
    k = probs.shape[1]
    use = (probs > 0.0).any(axis=1)
    bid, codes = _first_seen(np.asarray(buckets)[use])
    rows, ev = np.unique(np.column_stack([bid, probs[use]]), axis=0,
                         return_inverse=True)
    rid, probs = rows[:, 0].astype(np.intp), rows[:, 1:]
    order = np.argsort(bid, kind="stable")
    ev, bid = ev.reshape(-1)[order], bid[order]
    lam = np.full((len(codes), k), 1.0 / k)
    trace = []
    for _ in range(max_iters):
        terms = lam[rid] * probs
        mix = sum(terms.T)
        logs = np.fromiter(map(math.log, mix.tolist()), float, len(mix))
        # cumsum adds left to right, as a loop does; np.sum adds pairwise
        ll = float(np.cumsum(logs[ev])[-1]) if len(ev) else 0.0
        acc = np.stack([np.bincount(bid, (t / mix)[ev], len(codes))
                        for t in terms.T], axis=1)
        tot = sum(acc.T)
        lam = np.full_like(lam, 1.0 / k)
        lam[tot > 0] = acc[tot > 0] / tot[tot > 0, None]
        trace.append(ll)
        if len(trace) > 1 and ll - trace[-2] < tol * (abs(trace[-2]) + 1.0):
            break
    return dict(zip(codes.tolist(), map(tuple, lam.tolist()))), trace


class InterpolatedCondDist:
    """Bucket-tied mixture of empirical conditional distributions.

    Each component is a CondTable paired with an index tuple projecting the
    full context onto that component's conditioning variables.  The finest
    (last) component's context is the full context itself, and a full
    context's bucket is that of its count there.
    """

    def __init__(self, components, lambdas, trace=None):
        self.components = list(components)  # [(CondTable, ctx index tuple)]
        self.lambdas = dict(lambdas)
        self.trace = list(trace) if trace is not None else []
        self._k = len(self.components)
        self.uniform = tuple([1.0 / self._k] * self._k)

    def project(self, full_ctx, i):
        _, idx = self.components[i]
        return tuple(full_ctx[j] for j in idx)

    def bucket(self, full_ctx):
        return bucket_id(self.components[-1][0].total(full_ctx))

    def weights(self, full_ctx):
        return self.lambdas.get(self.bucket(full_ctx), self.uniform)

    def count_weights(self, counts):
        """``weights`` of full contexts with these counts, one row each."""
        by_bucket = np.array([self.lambdas.get(b, self.uniform)
                              for b in range(BUCKET_CAP + 1)])
        return by_bucket[bucket_ids(counts)]

    def prob(self, full_ctx, out):
        return self.dist(full_ctx).get(out, 0.0)

    def dist(self, full_ctx):
        lam = self.weights(full_ctx)
        out = defaultdict(float)
        for i, (table, _) in enumerate(self.components):
            for o, p in table.dist(self.project(full_ctx, i)).items():
                out[o] += lam[i] * p
        return dict(out)


def fit_interpolation(components, heldout_events):
    """Fit an InterpolatedCondDist to (full_ctx, outcome) heldout pairs.
    Each component's probabilities of all the events are gathered at
    once, and the events are bucketed by their full context's count in the
    finest component."""
    events = list(heldout_events)
    ctxs = [c for c, _out in events]
    outs = [out for _c, out in events]
    probs = np.stack([table.probs([tuple(c[j] for j in idx) for c in ctxs],
                                  outs) for table, idx in components], axis=1)
    finest = components[-1][0]
    lambdas, trace = fit_mixture_weights(
        bucket_ids(finest.row_totals()[finest.rows(ctxs)]), probs)
    return InterpolatedCondDist(components, lambdas, trace)
