"""Empirical conditional distributions and deleted-interpolation smoothing.

Shared between the tagging models (three-way mixtures over tags) and the
conditional shift-reduce parser (two-way mixtures over moves).  Mixture
weights are tied across contexts bucketed by frequency and fitted on
heldout data by EM on the weight simplex.
"""

import math
import operator
from collections import defaultdict
from itertools import chain, count, cycle, repeat

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
    cols, rows = np.asarray(cols, dtype=np.int64), np.asarray(rows, np.int64)
    width, names = int(cols.max(initial=0)) + 1, None
    if int(rows.max(initial=0)) > (2 ** 63 - width) // width:
        # pair codes would overflow: count the rows' ranks instead
        names, rows = np.unique(rows, return_inverse=True)
    codes = rows * width + cols
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
    return (keys[key_start] if names is None else names[keys[key_start]],
            key_rows,
            np.append(0, np.cumsum(np.bincount(row, minlength=len(key_rows)))),
            codes[start][entry] % width,
            np.bincount(pair, weights, len(start))[entry],
            np.bincount(row[pair], weights, len(key_rows)))


class Coder:
    """Integer codes of context tuples: field i's symbols are numbered by
    the dict ``ids[i]`` (0, 1, ... in its order), and a context's code has
    one digit per field, in radix ``len(ids[i])``, the last field lowest;
    -1 for a context of another length or with a symbol its field lacks.
    The radices are read once, so the dicts are never extended after."""

    def __init__(self, ids):
        self.ids = ids
        self.radix = [len(d) for d in ids]

    def code(self, columns):
        """The code of each context given as one id array per field, an id
        of -1 standing for an unseen symbol."""
        code = 0
        for col, radix in zip(columns, self.radix):
            code = code * radix + col
        if min(np.min(col, initial=0) for col in columns) < 0:
            code = np.where(np.min(columns, axis=0) < 0, -1, code)
        return code

    def encode(self, ctx):
        """The code of one context tuple, made in Python."""
        code = 0 if len(ctx) == len(self.ids) else -1
        for sym, ids, radix in zip(ctx, self.ids, self.radix):
            i = ids.get(sym, radix)
            code = code * radix + i if code >= 0 and i < radix else -1
        return code

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


class CondTable:
    """Empirical conditional distribution P(outcome | context), counts of
    (context, outcome) pairs in an integer-coded, CSR-like form.  Row r is
    the r-th context in order of first appearance; its entries
    ``ptr[r]:ptr[r+1]`` are outcome ids with their counts, in order of
    first appearance.  One more row, empty, stands for unseen contexts.

    A context is found by its integer row code, made by the table's coder;
    context tuples are made only for ``contexts`` and ``items``."""

    def __init__(self, coder, rows, cols, outcomes, weights=None):
        """Count coded pairs, pair i adding ``weights[i]`` if given:
        ``rows`` are ``coder``'s codes of the contexts, and column code c
        stands for ``outcomes[c]``."""
        self._load(coder, outcomes, *_count_pairs(rows, cols, weights))

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
        self._reads = None

    def add(self, ctx, out, k=1.0):
        """Add ``k`` to the count of (ctx, out), merged into the arrays at
        once; counts and totals go on adding in call order.  The table is
        recounted over copies of its coder's dicts, so the dicts it shares
        with other tables are never extended."""
        width = len(self.coder.ids)
        if len(ctx) != width:
            raise ValueError("context %r has %d fields, expected %d"
                             % (ctx, len(ctx), width))
        totals = dict(zip(self.contexts(), self._totals.tolist()))
        totals[ctx] = totals.get(ctx, 0.0) + k
        ids = [*map(dict, self.coder.ids), dict(zip(self._outs, count()))]
        cols, weights = table_columns([*self.items(), (ctx, out, k)],
                                      range(width + 1), ids)
        coder = Coder(ids[:width])
        self._load(coder, list(ids[width]), *_count_pairs(
            coder.code([cols[f] for f in range(width)]), cols[width],
            weights)[:-1], list(totals.values()))

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

    def _row(self, ctx):
        """The row of one context, found in a dict of the row codes; the
        first such read makes it, and the table's arrays as lists."""
        if self._reads is None:
            self._reads = (dict(zip(self.row_codes().tolist(), count())),
                           self._ptr.tolist(), self._totals.tolist(),
                           [self._outs[c] for c in self._cols.tolist()],
                           self._probs.tolist())
        return self._reads[0].get(self.coder.encode(ctx),
                                  len(self._keys) - 1)

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

    def probs(self, rows, outs):
        """The probability of outcome id ``outs[i]`` (an index into this
        table's outcomes, -1 for none of them) in row ``rows[i]``."""
        which, entry = self._entries(rows)
        hit = self._cols[entry] == np.asarray(outs)[which]
        out = np.zeros(len(rows))
        out[which[hit]] = self._probs[entry[hit]]
        return out

    def total(self, ctx):
        r = self._row(ctx)
        return self._reads[2][r]

    def dist(self, ctx):
        r = self._row(ctx)
        _rows, ptr, totals, outs, probs = self._reads
        if totals[r] <= 0.0:
            return {}
        return dict(zip(outs[ptr[r]:ptr[r + 1]], probs[ptr[r]:ptr[r + 1]]))

    def matrix(self, ctxs, index):
        """``prob`` over ``ctxs`` × outcomes as one array; ``index`` maps an
        outcome to its column, and other outcomes are left out."""
        codes = np.array([self.coder.encode(c) for c in ctxs], np.int64)
        return self.row_matrix(self.code_rows(codes), index)

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


def code_columns(rows, ids, grow=True):
    """Rows of symbols as one id array per column, column j's symbols
    numbered by the dict ``ids[j]`` (one dict may serve several columns): a
    symbol the dict lacks gets the next id, or without ``grow`` reads as
    -1.  The rows are coded as they stream by, and none of them is kept."""
    look = {id(d): defaultdict(count(len(d)).__next__ if grow else
                               repeat(-1).__next__, d) for d in ids}
    columns = cycle([look[id(d)] for d in ids])
    codes = np.fromiter(map(operator.getitem, columns,
                            chain.from_iterable(rows)), np.int64)
    for d in ids if grow else ():
        d.update(look[id(d)])
    return codes.reshape(-1, len(ids)).T


def table_columns(rows, fields, ids):
    """(context, outcome, count) rows as ``count_tables`` takes them: the
    id arrays of ``fields``, the context's then the outcome's, coded by
    ``code_columns`` through ``ids[f]``, and the counts as weights."""
    return (dict(zip(fields, code_columns(((*c, o) for c, o, _k in rows),
                                          [ids[f] for f in fields]))),
            np.array([k for _c, _o, k in rows]))


def count_tables(decl, ids, columns):
    """One CondTable per entry of ``decl``, name -> (context fields,
    outcome field), counted from ``columns[name]``: (id arrays indexed by
    field, weights or None for 1 each).  Field f's symbols are numbered by
    the dict ``ids[f]``, so tables that share a dict share its numbers."""
    tables = {}
    for name, (ctx, out) in decl.items():
        cols, weights = columns[name]
        coder = Coder([ids[f] for f in ctx])
        tables[name] = CondTable(coder, coder.code([cols[f] for f in ctx]),
                                 cols[out], list(ids[out]), weights)
    return tables


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
        return tuple(map(full_ctx.__getitem__, self.components[i][1]))

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


def fit_interpolation(components, columns, outcomes):
    """Fit an InterpolatedCondDist to heldout events given as id arrays,
    one per field of the full context and the outcomes', -1 for a symbol
    the tables lack.  The components share one id dict per kind of field,
    so a component's rows are its coder's codes of its projected columns.
    The events are bucketed by their full context's count in the finest
    (last) component."""
    rows = [table.code_rows(table.coder.code([columns[j] for j in idx]))
            for table, idx in components]
    probs = np.stack([table.probs(r, outcomes)
                      for (table, _), r in zip(components, rows)], axis=1)
    lambdas, trace = fit_mixture_weights(
        bucket_ids(components[-1][0].row_totals()[rows[-1]]), probs)
    return InterpolatedCondDist(components, lambdas, trace)
