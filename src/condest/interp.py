"""Empirical conditional distributions and deleted-interpolation smoothing.

Shared between the tagging models (three-way mixtures over tags) and the
conditional shift-reduce parser (two-way mixtures over moves).  Mixture
weights are tied across contexts bucketed by frequency and fitted on
heldout data by EM on the weight simplex.
"""

import math
from collections import defaultdict

import numpy as np

BUCKET_CAP = 16


def bucket_id(count):
    """Frequency bucket: floor(log2(count + 1)), capped at BUCKET_CAP."""
    return min(BUCKET_CAP, int(math.floor(math.log2(count + 1))))


class CondTable:
    """Empirical conditional distribution P(outcome | context): counts of
    (context, outcome) pairs, kept in first-seen order.  ``add`` adds a
    weighted count, as a model file's rows do."""

    def __init__(self, pairs=()):
        self.counts = counts = defaultdict(dict)   # ctx -> {outcome: count}
        self.totals = totals = defaultdict(float)  # ctx -> total count
        for ctx, out in pairs:
            d = counts[ctx]
            d[out] = d.get(out, 0.0) + 1.0
            totals[ctx] += 1.0

    def add(self, ctx, out, k=1.0):
        d = self.counts[ctx]
        d[out] = d.get(out, 0.0) + k
        self.totals[ctx] += k

    def prob(self, ctx, out):
        tot = self.totals.get(ctx, 0.0)
        if tot <= 0.0:
            return 0.0
        return self.counts[ctx].get(out, 0.0) / tot

    def total(self, ctx):
        return self.totals.get(ctx, 0.0)

    def dist(self, ctx):
        tot = self.totals.get(ctx, 0.0)
        if tot <= 0.0:
            return {}
        return {o: c / tot for o, c in self.counts[ctx].items()}

    def matrix(self, ctxs, index):
        """``prob`` over ``ctxs`` × outcomes as one array; ``index`` maps an
        outcome to its column, and other outcomes are left out."""
        out = np.zeros((len(ctxs), len(index)))
        for i, ctx in enumerate(ctxs):
            for o, p in self.dist(ctx).items():
                if o in index:
                    out[i, index[o]] = p
        return out

    def contexts(self):
        return self.counts.keys()

    def items(self):
        for ctx, d in self.counts.items():
            for out, c in d.items():
                yield ctx, out, c


def fit_mixture_weights(events, k, max_iters=100, tol=1e-7):
    """EM for bucket-tied mixture weights.

    ``events`` is a sequence of (bucket, (p_1, ..., p_k)) heldout items,
    where p_i is component i's probability for the observed outcome.
    Events whose component probabilities are all zero are skipped.

    Returns (lambdas, trace): ``lambdas`` maps bucket -> k-tuple on the
    simplex; ``trace`` is the per-iteration heldout log-likelihood, which
    is non-decreasing.  Buckets with no usable events get uniform weights.

    Each iteration is one update over an (events × k) array, with the
    events grouped by bucket (buckets in order of first appearance, events
    in input order).  Every sum adds its terms one at a time in that
    order, so the results are bit for bit those of a plain loop over each
    bucket's events.
    """
    buckets, ids, rows = {}, [], []
    for bucket, probs in events:
        if any(p > 0.0 for p in probs):
            ids.append(buckets.setdefault(bucket, len(buckets)))
            rows.append(probs)
    ids = np.array(ids, dtype=np.intp)
    order = np.argsort(ids, kind="stable")
    bid = ids[order]
    probs = np.array(rows, dtype=float).reshape(-1, k)[order]
    lam = np.full((len(buckets), k), 1.0 / k)
    trace = []
    prev_ll = None
    for _ in range(max_iters):
        terms = lam[bid] * probs
        mix = sum(terms.T)
        ll = 0.0
        for m in mix.tolist():
            ll += math.log(m)
        acc = np.stack([np.bincount(bid, t / mix, len(buckets))
                        for t in terms.T], axis=1)
        tot = sum(acc.T)
        lam = np.full_like(lam, 1.0 / k)
        lam[tot > 0] = acc[tot > 0] / tot[tot > 0, None]
        trace.append(ll)
        if prev_ll is not None:
            if ll - prev_ll < tol * (abs(prev_ll) + 1.0):
                break
        prev_ll = ll
    return dict(zip(buckets, map(tuple, lam.tolist()))), trace


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

    def component_probs(self, full_ctx, out):
        return tuple(
            table.prob(self.project(full_ctx, i), out)
            for i, (table, _) in enumerate(self.components))

    def prob(self, full_ctx, out):
        lam = self.weights(full_ctx)
        return sum(l * p for l, p in zip(lam, self.component_probs(full_ctx, out)))

    def dist(self, full_ctx):
        lam = self.weights(full_ctx)
        out = defaultdict(float)
        for i, (table, _) in enumerate(self.components):
            for o, p in table.dist(self.project(full_ctx, i)).items():
                out[o] += lam[i] * p
        return dict(out)


def fit_interpolation(components, heldout_events):
    """Fit an InterpolatedCondDist to (full_ctx, outcome) heldout pairs."""
    probe = InterpolatedCondDist(components, {})
    events = [(probe.bucket(c), probe.component_probs(c, out))
              for c, out in heldout_events]
    lambdas, trace = fit_mixture_weights(events, len(components))
    return InterpolatedCondDist(components, lambdas, trace)
