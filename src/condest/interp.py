"""Empirical conditional distributions and deleted-interpolation smoothing.

Shared between the tagging models (three-way mixtures over tags) and the
conditional shift-reduce parser (two-way mixtures over moves).  Mixture
weights are tied across contexts bucketed by frequency and fitted on
heldout data by EM on the weight simplex.
"""

import math
from collections import defaultdict
from itertools import repeat

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


def _runs(values):
    """Where each run of equal values in a sorted array starts, and the run
    of each value."""
    new = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new), np.cumsum(new) - 1


def _count_pairs(rows, cols, weights=None):
    """Count integer-coded (row, column) pairs, rows and each row's columns
    numbered in order of first appearance.  Returns (keys, key_rows, ptr,
    cols, counts, totals): the distinct row codes sorted, and the row of
    each; then row r's entries at ``ptr[r]:ptr[r+1]``.  Each pair adds its
    weight (default 1) to its count and its row's total, one at a time in
    input order.

    One stable sort of the positions by pair code makes each distinct pair
    a run, first appearing at the run's first position, and each row's
    pairs adjacent runs.  Only the distinct rows and pairs are sorted
    again, by first appearance.  Each sort sorts values, a code with a
    position in its low bits, which numpy does faster than ``argsort``."""
    cols = np.asarray(cols, dtype=np.int64)
    width = int(cols.max(initial=0)) + 1
    codes = np.asarray(rows, dtype=np.int64) * width + cols
    n, shift = len(codes), len(codes).bit_length()
    if int(codes.max(initial=0)) < 1 << (63 - shift):
        key = np.sort(codes << shift | np.arange(n))
        order, codes = key & ((1 << shift) - 1), key >> shift
    else:   # codes too wide to share an int64 with a position
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
    start, run = _runs(codes)
    first = order[start]
    pair = np.empty(n, dtype=np.intp)   # the run of each position
    pair[order] = run
    keys = codes[start] // width
    key_start, key = _runs(keys)
    # a row first appears with the first of its pairs; a first position
    # names its pair's run, and the run its row code's
    key_first = np.minimum.reduceat(first, key_start) if len(key_start) \
        else key_start
    key_rows = np.empty(len(key_start), dtype=np.intp)
    key_rows[key[pair[np.sort(key_first)]]] = np.arange(len(key_start))
    row = key_rows[key]
    # the runs by row, then by first position
    entry = pair[np.sort(row * n + first) % n] if n else run
    weights = np.ones(n) if weights is None else weights
    return (keys[key_start], key_rows,
            np.append(0, np.cumsum(np.bincount(row, minlength=len(key_rows)))),
            codes[start][entry] % width,
            np.bincount(pair, weights, len(start))[entry],
            np.bincount(row[pair], weights, len(key_rows)))


class Coder:
    """Integer codes of context tuples: field i's symbols are numbered by
    the dict ``ids[i]`` (0, 1, ... in its order), and a context's code has
    one digit per field, in radix ``len(ids[i])``, the last field lowest."""

    def __init__(self, ids):
        self.ids = ids
        self.radix = [len(d) for d in ids]

    def code(self, columns):
        """The code of each context given as one id array per field."""
        code = 0
        for col, radix in zip(columns, self.radix):
            code = code * radix + col
        return code

    def encode(self, ctxs):
        """The code of each context, -1 for one with an unnumbered symbol."""
        ctxs = list(ctxs)
        if not ctxs:
            return np.zeros(0, dtype=np.int64)
        columns = [np.fromiter(map(ids.get, col, repeat(-1)), np.int64,
                               len(ctxs))
                   for ids, col in zip(self.ids, zip(*ctxs))]
        return np.where(np.min(columns, axis=0) < 0, -1, self.code(columns))

    def digits(self, codes):
        """The id array of each field of codes."""
        out = []
        for radix in reversed(self.radix):
            codes, digit = np.divmod(codes, radix)
            out.insert(0, digit)
        return out

    def decode(self, codes):
        """The context tuple of each code."""
        return list(zip(*(np.array(list(ids), dtype=object)[digit].tolist()
                          for ids, digit in zip(self.ids, self.digits(codes)))))


class _Enumeration:
    """The coder of a table counted from context tuples: a context's code
    is its row, contexts numbered in order of first appearance."""

    def __init__(self, ids):
        self.ids = ids

    def encode(self, ctxs):
        return np.array([self.ids.get(c, -1) for c in ctxs], dtype=np.int64)

    def decode(self, codes):
        ctxs = list(self.ids)
        return [ctxs[c] for c in codes.tolist()]


class CondTable:
    """Empirical conditional distribution P(outcome | context), counts of
    (context, outcome) pairs in an integer-coded, CSR-like form.  Row r is
    the r-th context in order of first appearance; its entries
    ``ptr[r]:ptr[r+1]`` are outcome ids with their counts, in order of
    first appearance.  One more row, empty, stands for unseen contexts.

    A context is found by its integer row code, made by the table's coder;
    context tuples are made only for ``contexts`` and ``items``."""

    def __init__(self, pairs=(), weights=None):
        """Count ``pairs``, pair i adding ``weights[i]`` if given."""
        ctx_ids, out_ids, rows, cols = {}, {}, [], []
        for ctx, out in pairs:
            rows.append(ctx_ids.setdefault(ctx, len(ctx_ids)))
            cols.append(out_ids.setdefault(out, len(out_ids)))
        self._load(_Enumeration(ctx_ids), list(out_ids),
                   *_count_pairs(rows, cols, weights))

    @classmethod
    def from_codes(cls, coder, rows, cols, outcomes, weights=None):
        """Count coded pairs, pair i adding ``weights[i]`` if given:
        ``rows`` are ``coder``'s codes of the contexts, and column code c
        stands for ``outcomes[c]``."""
        table = cls.__new__(cls)
        table._load(coder, outcomes, *_count_pairs(rows, cols, weights))
        return table

    def _load(self, coder, outcomes, keys, key_rows, ptr, cols, counts,
              totals):
        self.coder, self._outs, self._ctxs = coder, outcomes, None
        # a trailing key no code equals, for the empty row
        self._keys = np.append(keys, -1)
        self._key_rows = np.append(key_rows, len(key_rows))
        self._ptr, self._cols = np.append(ptr, ptr[-1]), cols
        self._counts, self._totals = counts, np.append(totals, 0.0)
        tot = np.repeat(self._totals, np.diff(self._ptr))
        self._probs = np.divide(counts, tot, out=np.zeros(len(counts)),
                                where=tot > 0.0)

    def add(self, ctx, out, k=1.0):
        """Add ``k`` to the count of (ctx, out), merged into the arrays at
        once; counts and totals go on adding in call order."""
        totals = dict(zip(self.contexts(), self._totals.tolist()))
        totals[ctx] = totals.get(ctx, 0.0) + k
        rows = [*self.items(), (ctx, out, k)]
        new = CondTable([(c, o) for c, o, _k in rows], [k for *_p, k in rows])
        self._load(new.coder, new._outs, new._keys[:-1], new._key_rows[:-1],
                   new._ptr[:-1], new._cols, new._counts,
                   [totals[c] for c in new.contexts()])

    def row_codes(self):
        """Each row's code, in row order."""
        codes = np.empty(len(self._keys) - 1, dtype=np.int64)
        codes[self._key_rows[:-1]] = self._keys[:-1]
        return codes

    def contexts(self):
        """The context of each row, decoded from the row codes once."""
        if self._ctxs is None:
            self._ctxs = self.coder.decode(self.row_codes())
        return self._ctxs

    def code_rows(self, codes):
        """The row of each row code, the empty row for a code no row has."""
        at = np.searchsorted(self._keys[:-1], codes)
        return np.where(self._keys[at] == codes, self._key_rows[at],
                        len(self._totals) - 1)

    def rows(self, ctxs):
        """The row of each context, the empty row for an unseen one."""
        return self.code_rows(self.coder.encode(ctxs))

    def row_totals(self):
        return self._totals

    def outcomes(self):
        """The outcomes that have an entry."""
        return {self._outs[c] for c in self._cols.tolist()}

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
        return float(self._totals[self.rows([ctx])[0]])

    def dist(self, ctx):
        r = self.rows([ctx])[0]
        if self._totals[r] <= 0.0:
            return {}
        a, b = self._ptr[r], self._ptr[r + 1]
        return {self._outs[c]: p for c, p in zip(self._cols[a:b].tolist(),
                                                 self._probs[a:b].tolist())}

    def matrix(self, ctxs, index):
        """``prob`` over ``ctxs`` × outcomes as one array; ``index`` maps an
        outcome to its column, and other outcomes are left out."""
        return self.row_matrix(self.rows(ctxs), index)

    def row_matrix(self, rows, index):
        """``matrix`` over rows given by number."""
        which, entry = self._entries(rows)
        col = np.array([index.get(o, -1) for o in self._outs],
                       dtype=np.intp)[self._cols[entry]]
        out = np.zeros((len(rows), len(index)))
        out[which[col >= 0], col[col >= 0]] = self._probs[entry[col >= 0]]
        return out

    def items(self):
        ptr, cols = self._ptr.tolist(), self._cols.tolist()
        counts = self._counts.tolist()
        for r, ctx in enumerate(self.contexts()):
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
    buckets = np.asarray(buckets)[use].tolist()
    codes = {b: i for i, b in enumerate(dict.fromkeys(buckets))}
    bid = np.array([codes[b] for b in buckets], dtype=np.intp)
    rows, ev = np.unique(np.column_stack([bid, probs[use]]), axis=0,
                         return_inverse=True)
    rid, probs = rows[:, 0].astype(np.intp), rows[:, 1:]
    order = np.argsort(bid, kind="stable")
    ev, bid = ev.reshape(-1)[order], bid[order]
    lam = np.full((len(codes), k), 1.0 / k)
    cells = (bid[:, None] * k + np.arange(k)).reshape(-1)  # (bucket, comp)
    trace = []
    for _ in range(max_iters):
        terms = lam[rid] * probs
        # a row of k < 8 terms sums left to right; so do cumsum and
        # bincount, each bin in input order, as a loop does
        mix = terms.sum(axis=1)
        logs = np.fromiter(map(math.log, mix.tolist()), float, len(mix))
        ll = float(np.cumsum(logs[ev])[-1]) if len(ev) else 0.0
        acc = np.bincount(cells, (terms / mix[:, None])[ev].reshape(-1),
                          len(codes) * k).reshape(-1, k)
        tot = acc.sum(axis=1)
        lam = np.full_like(lam, 1.0 / k)
        lam[tot > 0] = acc[tot > 0] / tot[tot > 0, None]
        trace.append(ll)
        if len(trace) > 1 and ll - trace[-2] < tol * (abs(trace[-2]) + 1.0):
            break
    return dict(zip(codes, map(tuple, lam.tolist()))), trace


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
