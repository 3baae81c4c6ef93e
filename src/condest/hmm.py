"""Bitag tagging models: one conditional and three joint chain models over
(word, tag) sequences, with deleted-interpolation smoothing and
posterior-marginal decoding.

All four variants factor over positions j = 1..m+1 with end-markers at
both boundaries, so a single forward-backward pass over the tag lattice
decodes any of them; only the per-edge factor differs.
"""

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import modelfile
from .interp import CondTable, InterpolatedCondDist, fit_interpolation

END = "<end>"
UNK = "<unk>"
UNK_THRESHOLD = 2  # words with training count below this are mapped to UNK

# Every count table, declared once as (context fields, outcome field) of a
# position j: the fields are indices into (W_{j-1}, T_{j-1}, W_j, T_j).
WP, TP, W, T = range(4)
TABLES = {
    "trans": ((TP,), T),               # P(T_j | T_{j-1})
    "emit": ((T,), W),                 # P(W_j | T_j)
    "emit_prev": ((TP,), W),           # P(W_j | T_{j-1})
    "tag_given_word": ((W,), T),       # P(T_j | W_j)
    "tag_given_prevword": ((WP,), T),  # P(T_j | W_{j-1})
    "full0": ((W, TP), T),             # P(T_j | W_j, T_{j-1})
    "full1": ((WP, TP), T),            # P(T_j | W_{j-1}, T_{j-1})
}

# Mixture components, finest last: the finest table's context is the
# mixture's full context.  pr0 keys on the current word, pr1 the previous.
MIXTURES = {"pr0": ("tag_given_word", "trans", "full0"),
            "pr1": ("tag_given_prevword", "trans", "full1")}

# Each variant's position factor as (mixture, emission table): the mixture,
# or without one the transition table, times the emission, if any.
VARIANT_FACTORS = {"joint": (None, "emit"),
                   "conditional": ("pr0", None),
                   "joint-prevword": ("pr1", "emit"),
                   "joint-nextemit": ("pr0", "emit_prev")}
VARIANTS = tuple(VARIANT_FACTORS)


class TaggingError(ValueError):
    pass


@dataclass
class TaggedCorpus:
    sentences: list  # [(words tuple, tags tuple)]

    def __post_init__(self):
        for words, tags in self.sentences:
            if len(words) != len(tags) or not words:
                raise TaggingError("words/tags length mismatch or empty sentence")
            if END in words or END in tags:
                raise TaggingError("reserved end-marker appears in data")

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


def read_tagged(text):
    """One sentence per line, space-separated ``word_tag`` tokens."""
    sentences = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        words, tags = [], []
        for tok in line.split():
            if "_" not in tok:
                raise TaggingError("line %d: token %r lacks '_'" % (lineno, tok))
            w, t = tok.rsplit("_", 1)
            words.append(w)
            tags.append(t)
        sentences.append((tuple(words), tuple(tags)))
    return TaggedCorpus(sentences)


def write_tagged(corpus):
    return "".join(
        " ".join("%s_%s" % (w, t) for w, t in zip(words, tags)) + "\n"
        for words, tags in corpus)


class EmpiricalTables:
    """Raw word counts, and one CondTable attribute per TABLES entry."""

    def __init__(self, word_counts):
        self.word_counts = word_counts  # raw, pre-UNK

    @functools.cached_property
    def tagset(self):
        """Sorted tags: every outcome of the transition table but the end
        marker.  Read only once the tables are filled."""
        return tuple(sorted({t for _ctx, t, _c in self.trans.items()} - {END}))

    @functools.cached_property
    def words(self):
        """Word ids: END (0), UNK, then each word map_word keeps."""
        return {w: i for i, w in enumerate(dict.fromkeys(
            [END, UNK, *map(self.map_word, self.word_counts)]))}

    def word_ids(self, ws):
        """The id of each word, raw or UNK-mapped: any other word reads as
        UNK, as map_word maps it."""
        unk = repeat(self.words[UNK], len(ws))
        return np.fromiter(map(self.words.get, ws, unk), np.intp, len(ws))

    def components(self, target):
        """The ``target`` mixture's components over these tables, each
        table with its context's places in the full context."""
        full = TABLES[MIXTURES[target][-1]][0]
        return [(getattr(self, name), tuple(map(full.index, TABLES[name][0])))
                for name in MIXTURES[target]]

    def map_word(self, w):
        if w == END:
            return w
        return w if self.word_counts.get(w, 0) >= UNK_THRESHOLD else UNK

    def walk(self, corpus):
        """Positions j = 1..m+1 of each sentence as the four columns of
        TABLES, words UNK-mapped; sentences share the END between them."""
        ws, ts = [END], [END]
        for words, tags in corpus:
            ws += [*map(self.map_word, words), END]
            ts += [*tags, END]
        return ws[:-1], ts[:-1], ws[1:], ts[1:]


def table_pairs(positions, name):
    """Table ``name``'s (context, outcome) pairs over walked positions."""
    ctx, out = TABLES[name]
    return zip(zip(*(positions[f] for f in ctx)), positions[out])


def _contexts(names, base, codes):
    """The context tuples of row codes: a code's digits in ``base`` are ids
    into ``names``, one array of symbols per field."""
    fields = []
    for field in reversed(names):
        codes, digit = np.divmod(codes, base)
        fields.insert(0, field[digit].tolist())
    return list(zip(*fields))


def collect_tables(train):
    """Exact counts over a corpus, including both end-marker transitions.

    The walked columns are coded once, words (UNK mapping folded in) by
    ``words`` and tags in order of first appearance, and each TABLES entry
    counts the integer codes of its context fields and outcome."""
    if not len(train):
        raise TaggingError("empty training corpus")
    words = list(chain.from_iterable(w for w, _t in train))
    tags = list(chain.from_iterable(t for _w, t in train))
    tables = EmpiricalTables({w: float(c) for w, c in Counter(words).items()})
    tag_id = {t: i for i, t in enumerate(dict.fromkeys([END, *tags]))}
    # token slots in the walk, the END of each sentence before it (END is
    # id 0 of both columns)
    slots = np.arange(len(words)) + np.repeat(
        np.arange(1, len(train) + 1), [len(w) for w, _t in train])
    ws, ts = np.zeros((2, len(words) + len(train) + 1), dtype=np.int64)
    ws[slots] = tables.word_ids(words)
    ts[slots] = np.fromiter(map(tag_id.get, tags), np.int64, len(tags))
    positions = ws[:-1], ts[:-1], ws[1:], ts[1:]
    names = [np.array(list(ids), dtype=object)
             for ids in (tables.words, tag_id)] * 2
    base = max(map(len, names))
    for name, (ctx, out) in TABLES.items():
        code = sum(positions[f] * base ** i
                   for i, f in enumerate(reversed(ctx)))
        setattr(tables, name, CondTable.from_codes(
            code, positions[out],
            functools.partial(_contexts, [names[f] for f in ctx], base),
            names[out]))
    return tables


def fit_deleted_interpolation(tables, heldout, target="pr0"):
    """Fit bucketed mixture weights on heldout data by EM.

    target "pr0" mixes P(T|W), P(T|T_prev), P(T|W,T_prev); target "pr1"
    mixes the previous-word analogues.  The heldout events are the pairs of
    the finest table over the heldout positions."""
    if not len(heldout):
        raise TaggingError("empty heldout corpus")
    if target not in MIXTURES:
        raise ValueError("target must be 'pr0' or 'pr1'")
    return fit_interpolation(
        tables.components(target),
        table_pairs(tables.walk(heldout), MIXTURES[target][-1]))


class TaggerModel:
    """One of the four chain tagging models over a shared table set, with
    the fitted mixture its variant reads (VARIANT_FACTORS)."""

    def __init__(self, variant, tables, mixture=None):
        if variant not in VARIANTS:
            raise ValueError("unknown variant %r" % (variant,))
        target = VARIANT_FACTORS[variant][0]
        if (mixture is None) != (target is None):
            raise ValueError("variant %r reads mixture %s" % (variant, target))
        self.variant = variant
        self.tables = tables
        self.mixture = mixture
        self._compile()

    @classmethod
    def train(cls, variant, train, heldout=None):
        tables = collect_tables(train)
        target = VARIANT_FACTORS.get(variant, (None,))[0]
        if target and heldout is None:
            raise TaggingError("variant %r needs heldout data" % (variant,))
        return cls(variant, tables, target and fit_deleted_interpolation(
            tables, heldout, target))

    def _compile(self):
        """The arrays the lattice reads: rows and columns are the tagset,
        then END (``_index``), and word ids are those of ``tables.words``."""
        tb, words = self.tables, self.tables.words
        syms = tb.tagset + (END,)
        self._index = index = {s: i for i, s in enumerate(syms)}
        self._trans = tb.trans.matrix([(s,) for s in syms], index)
        target, emission = VARIANT_FACTORS[self.variant]
        self._emit = self._mix = None
        if emission is not None:
            # P(w | s) over (word, tprev, t), s the tag the table reads
            self._emit = np.expand_dims(np.ascontiguousarray(getattr(
                tb, emission).matrix([(s,) for s in syms], words).T),
                1 if TABLES[emission][0] == (T,) else 2)
        if target is not None:
            # the field of the word the mixture reads (W or WP); P(t | word)
            # over (word, t); P(t | word, tprev) over (the finest table's
            # row, t); each row's weights; and the row of each
            # (word, tprev), the empty row if unseen
            (by_word, _), _, (full, _) = self.mixture.components
            ctxs = list(full.contexts())
            at = np.array([(words.get(w, -1), index.get(s, -1))
                           for w, s in ctxs], dtype=np.intp).reshape(-1, 2)
            seen = (at >= 0).all(axis=1)
            row_of = np.full((len(words), len(syms)), len(ctxs))
            row_of[at[seen, 0], at[seen, 1]] = np.flatnonzero(seen)
            self._mix = (TABLES[MIXTURES[target][0]][0][0],
                         by_word.matrix([(w,) for w in words], index), row_of,
                         full.matrix(None, index),
                         self.mixture.count_weights(full.row_totals()))

    def _mixture(self, ids):
        """mix.prob((word[p], tprev), t) over (p, tprev, t), ``word`` the
        ids of the field the mixture reads (``ids``: field -> word ids):
        P(t|word), P(t|tprev) and P(t|word,tprev), weighted by the bucket
        of the full context's count, added in the order
        InterpolatedCondDist.prob adds."""
        field, by_word, row_of, full, weights = self._mix
        word = ids[field]
        rows = row_of[word]
        lam = weights[rows]
        return (lam[..., 0:1] * by_word[word][:, None, :]
                + lam[..., 1:2] * self._trans
                + lam[..., 2:3] * full[rows])

    def edge_weight(self, wprev, w):
        """Factors of a sentence's positions, word ``w[p]`` after
        ``wprev[p]`` (raw or UNK-mapped), for every transition tprev -> t:
        one array over (position, tprev, t), tags then END."""
        ids = {WP: self.tables.word_ids(wprev), W: self.tables.word_ids(w)}
        base = self._trans if self._mix is None else self._mixture(ids)
        return base if self._emit is None else base * self._emit[ids[W]]

    def sequence_log_prob(self, words, tags):
        if len(words) != len(tags):
            raise TaggingError("words/tags length mismatch")
        if any(t not in self._index for t in tags):
            return float("-inf")
        wp, tp, w, t = self.tables.walk([(words, tags)])
        lp = 0.0
        for weights, a, b in zip(self.edge_weight(wp, w), tp, t):
            p = weights[self._index[a], self._index[b]]
            if p <= 0.0:
                return float("-inf")
            lp += math.log(p)
        return lp

    def _lattice(self, words):
        """Per-position weight arrays over the tag lattice, from one
        ``edge_weight`` call over the sentence.

        Returns (first, mats, final): first[t] covers j=1, mats[j-2] is the
        (tprev, t) matrix for j=2..m, final[t] is the j=m+1 end transition.
        An all-zero block falls back to the tag-bigram distribution.  The
        blocks are copied to contiguous arrays: BLAS sums a strided slice's
        products in another order, which moves log Z in the last bits.
        """
        if not words:
            raise TaggingError("empty sentence")
        n, m = len(self.tables.tagset), len(words)
        ws = [END, *words, END]
        weights = self.edge_weight(ws[:-1], ws[1:])
        first, mats, final = (np.ascontiguousarray(b) for b in (
            weights[0, n, :n], weights[1:m, :n, :n], weights[m, :n, n]))
        peaks = [first.max(), *mats.max(axis=(1, 2)), final.max()]
        for j in np.flatnonzero(np.array(peaks) <= 0.0) + 1:
            at = (n if j == 1 else slice(n), n if j == m + 1 else slice(n))
            block = np.ascontiguousarray(self._trans[at])
            if block.max() <= 0.0:
                raise TaggingError(
                    "no tag can reach the end marker" if j > m else
                    "no tag has nonzero probability at position %d" % j)
            if j == 1:
                first = block
            elif j > m:
                final = block
            else:
                mats[j - 2] = block
        return first, mats, final

    def log_partition(self, words):
        """Log of the sum over all tag sequences of the chain product."""
        first, mats, final = self._lattice(words)
        alpha = first.astype(float)
        logz = 0.0
        for mat in mats:
            s = alpha.sum()
            if s <= 0.0:
                return float("-inf")
            logz += math.log(s)
            alpha = (alpha / s) @ mat
        total = float(alpha @ final)
        if total <= 0.0:
            return float("-inf")
        return logz + math.log(total)

    def posterior_marginals(self, words):
        """Per-position posterior over tags, shape (m, |tagset|)."""
        first, mats, final = self._lattice(words)
        m = len(words)
        alphas = [first]
        for mat in mats:
            alphas.append(_normalized(alphas[-1]) @ mat)
        betas = [None] * m
        betas[m - 1] = final
        for j in range(m - 2, -1, -1):
            betas[j] = mats[j] @ _normalized(betas[j + 1])
        out = np.empty((m, len(self.tables.tagset)))
        for j in range(m):
            out[j] = _normalized(alphas[j] * betas[j])
        return out

    def posterior_decode(self, words):
        """Tag each position by its maximum posterior marginal; ties go to
        the lexicographically smallest tag."""
        marg = self.posterior_marginals(words)
        tags = self.tables.tagset
        return tuple(tags[int(np.argmax(row))] for row in marg)


def _normalized(v):
    """v over its sum; a lattice with no mass left is dead."""
    s = v.sum()
    if s <= 0.0:
        raise TaggingError("dead lattice: sentence has zero probability")
    return v / s


def tagging_accuracy(pred, gold):
    """Fraction of aligned positions with equal tags.

    Both arguments are sequences of tag sequences.
    """
    if len(pred) != len(gold):
        raise TaggingError("corpora have different sentence counts")
    total = correct = 0
    for i, (p, g) in enumerate(zip(pred, gold)):
        if len(p) != len(g):
            raise TaggingError("sentence %d: length mismatch" % i)
        total += len(g)
        correct += sum(1 for a, b in zip(p, g) if a == b)
    if total == 0:
        raise TaggingError("empty corpora")
    return correct / total


# ---------------------------------------------------------------------------
# Persistence: count tables and per-bucket weights of each mixture, the
# weights left empty for a mixture the variant does not use.

TAGGER_SCHEMA = {
    "meta": {"variant": modelfile.one_of(*VARIANTS)},
    "word_counts": (str, modelfile.number),
    **{"table:" + name: (str, str, modelfile.number)
       for name in TABLES},
    **{"lambdas:" + target: (int,) + (modelfile.number,) * len(comps)
       for target, comps in MIXTURES.items()},
}


def save_tagger(model, path):
    tb = model.tables
    sections = [("meta", [("variant", model.variant)]),
                ("word_counts", sorted(tb.word_counts.items()))]
    sections += [("table:" + name, modelfile.table_rows(getattr(tb, name)))
                 for name in TABLES]
    for target in MIXTURES:
        lambdas = (model.mixture.lambdas
                   if target == VARIANT_FACTORS[model.variant][0] else {})
        sections.append(("lambdas:" + target,
                         [(b,) + lambdas[b] for b in sorted(lambdas)]))
    modelfile.write(path, sections)


def load_tagger(path):
    f = modelfile.read(path, TAGGER_SCHEMA, TaggingError)
    tables = EmpiricalTables(dict(f["word_counts"]))
    for name in TABLES:
        setattr(tables, name, modelfile.fill_table(f["table:" + name]))
    if not tables.tagset:
        raise TaggingError("%s: [table:trans] has no tags" % path)
    variant = f["meta"]["variant"]
    target = VARIANT_FACTORS[variant][0]
    return TaggerModel(variant, tables, target and InterpolatedCondDist(
        tables.components(target),
        {b: tuple(ls) for b, *ls in f["lambdas:" + target]}))
