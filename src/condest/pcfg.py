"""PCFGs: relative-frequency (joint) estimation, Inside-Outside
expectations, conditional-likelihood gradient ascent, and CKY Viterbi
parsing.

Grammars may have arbitrary-arity rules; charts run over an internal
left-factored unary/binary form with a deterministic mapping back onto the
original rules, so expectations and parses are reported in terms of the
original grammar.
"""

import logging
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import modelfile
from .trees import Tree, postorder, tree_yield

log = logging.getLogger(__name__)

NORM_TOL = 1e-6
NEG_INF = float("-inf")


class EstimationError(ValueError):
    pass


class Production(NamedTuple):
    lhs: str
    rhs: tuple

    def __str__(self):
        return "%s -> %s" % (self.lhs, " ".join(self.rhs))


class Pcfg:
    """Production set with per-rule weights, normalized per left-hand side."""

    def __init__(self, start, theta):
        self.rules = tuple(sorted(theta))   # a rule's id: its place here
        by_lhs = defaultdict(float)
        for rule in self.rules:   # sums not in hash order
            w = theta[rule]
            if not math.isfinite(w):
                raise EstimationError("non-finite weight for %s" % (rule,))
            if w < 0:
                raise EstimationError("negative weight for %s" % (rule,))
            if not rule.rhs:
                raise EstimationError("empty right-hand side for %s" % (rule,))
            by_lhs[rule.lhs] += w
        for lhs, tot in by_lhs.items():
            if abs(tot - 1.0) > NORM_TOL:
                raise EstimationError(
                    "weights for %s sum to %.12g, not 1" % (lhs, tot))
        # Tighten the normalization so downstream sums hold to 1e-12; one
        # already that tight is kept, so a saved grammar reloads bit for bit.
        scale = {lhs: 1.0 if abs(tot - 1.0) <= 1e-12 else tot
                 for lhs, tot in by_lhs.items()}
        self.theta = {r: theta[r] / scale[r.lhs] for r in self.rules}
        self.start = start
        self.nonterminals = frozenset(by_lhs)
        if start not in self.nonterminals:
            raise EstimationError("start symbol %r has no rules" % (start,))
        self.source = None   # the file of a loaded grammar, for errors
        self._factored = None

    def is_nonterminal(self, sym):
        return sym in self.nonterminals

    def factored(self):
        if self._factored is None:
            self._factored = _FactoredGrammar(self)
        return self._factored


@dataclass
class RuleCounts:
    counts: dict
    lhs_totals: dict
    start: str = None


@dataclass(repr=False, eq=False)
class SentenceExpectations:
    """A yield's log marginal; ``counts[k]`` is ``rules[k]``'s expectation."""
    log_marginal: float
    counts: np.ndarray
    rules: tuple

    @property
    def parsable(self):
        return self.log_marginal > float("-inf")

    @cached_property
    def expected_counts(self):   # the nonzero counts, keyed by rule
        return {r: c for r, c in zip(self.rules, self.counts.tolist()) if c}

    def __repr__(self):   # every bit of every count
        return "SentenceExpectations(%r, %r)" % (
            self.log_marginal, tuple(self.counts.tolist()))


@dataclass
class AscentConfig:
    max_iters: int = 200
    tol: float = 1e-6
    initial_step: float = 1.0

    def __post_init__(self):
        if self.max_iters <= 0 or self.tol <= 0 or self.initial_step <= 0:
            raise ValueError("AscentConfig fields must be positive")


def tree_productions(t):
    """Usage counts of productions in a single tree, keyed in reverse
    post-order: that order fixes the sum order of ``tree_log_prob``."""
    out = defaultdict(int)
    for node in reversed(postorder(t)):
        if node.children:
            out[Production(node.label,
                           tuple(c.label for c in node.children))] += 1
    return out


def extract_counts(corpus):
    """Exact production usage counts over a corpus of stripped trees; a
    leaf that is also a node label would be read as a nonterminal."""
    trees = list(corpus)
    if not trees:
        raise EstimationError("empty corpus")
    counts = defaultdict(float)
    for t in trees:
        for r, c in tree_productions(t).items():
            counts[r] += c
    labels = {r.lhs for r in counts}
    for sid, t in enumerate(trees):
        clash = sorted(labels.intersection(tree_yield(t)))
        if clash:
            raise EstimationError("tree %r: leaf %r is also a nonterminal "
                                  "label" % (sid, clash[0]))
    totals = defaultdict(float)
    for r, c in counts.items():
        totals[r.lhs] += c
    return RuleCounts(dict(counts), dict(totals), start=trees[0].label)


def estimate_mle(counts):
    """Relative-frequency estimator: theta = count / lhs total."""
    for lhs, tot in counts.lhs_totals.items():
        if tot <= 0:
            raise EstimationError("nonterminal %r has zero total count" % (lhs,))
    theta = {r: c / counts.lhs_totals[r.lhs] for r, c in counts.counts.items()}
    return Pcfg(counts.start, theta)


def tree_log_prob(g, t):
    """Sum over rules of f_r(t) * log theta_r; -inf if t uses unknown rules."""
    lp = 0.0
    missing = []
    for r, c in tree_productions(t).items():
        w = g.theta.get(r)
        if w is None:
            missing.append(r)
        elif w <= 0.0:
            lp = float("-inf")
        else:
            lp += c * math.log(w)
    if missing:
        log.warning("tree uses rules absent from grammar: %s",
                    "; ".join(str(r) for r in missing))
        return float("-inf")
    return lp


# ---------------------------------------------------------------------------
# The chart engine: one sweep per span width; chart[w, i] is the row over all
# symbols of the span (i, i + w).  Inside rows carry a power-of-two exponent
# per span (exact); outside is the adjoint d log Z / d inside (Eisner 2016).

ZERO_EXP = -(1 << 40)   # exponent of an all-zero row: scales any term to 0


class _FactoredGrammar:
    """A grammar compiled once for the chart, in left-factored form.

    Symbols: the sorted nonterminals (ids below ``n_nt``), the ``#``
    intermediates of rules longer than two (below ``n_chart``), then the
    terminals of binary rules.  Rules are index arrays in rule-id order;
    ``slot[k]`` is rule k's place among the binary, unary and lexical ones."""

    def __init__(self, g):
        lexical, unary, binary, inter = [], [], [], []
        for ridx, rule in enumerate(g.rules):
            (lhs, rhs), w = rule, g.theta[rule]
            if len(rhs) == 1:
                (unary if g.is_nonterminal(rhs[0]) else lexical).append(
                    (lhs, rhs[0], w, ridx))
                continue
            prev = rhs[0]
            for i in range(2, len(rhs)):
                inter.append(("#", ridx, i))
                binary.append((inter[-1], prev, rhs[i - 1], 1.0, -1))
                prev = inter[-1]
            binary.append((lhs, prev, rhs[-1], w, ridx))
        nts = sorted(g.nonterminals)
        terms = sorted({s for b in binary for s in b[1:3]}
                       - set(nts) - set(inter))
        self.symbols = nts + inter + terms
        self.size, self.n_nt = len(self.symbols), len(nts)
        self.n_chart = len(nts) + len(inter)
        ids = {s: i for i, s in enumerate(self.symbols)}
        self.start = ids[g.start]
        # a word's entries: its lexical rules, or an entry onto its own id
        lexical = sorted(lexical + [(t, t, 1.0, -1) for t in terms],
                         key=lambda r: r[1])
        self.lexicon = {}   # word -> (start, end) of its entries
        for k, r in enumerate(lexical):
            self.lexicon[r[1]] = (self.lexicon.get(r[1], (k,))[0], k + 1)
        owner = [r[-1] for r in binary + unary + lexical]   # rule id, or -1
        self.slot = np.argsort(owner)[owner.count(-1):]
        nb = len(binary)
        self.parent, self.left, self.right, self.u_lhs, self.u_child = (
            np.array([ids[r[f]] for r in rules], dtype=np.int64)
            for rules, f in ((binary, 0), (binary, 1), (binary, 2),
                             (unary, 0), (unary, 1)))
        self.lex_lhs = np.array([ids[r[0]] for r in lexical], dtype=np.int64)
        self.weight, self.u_weight, self.lex_weight = (
            np.array([r[-2] for r in rules])
            for rules in (binary, unary, lexical))
        self.to_left = np.eye(self.size)[self.left]
        self.to_right = np.eye(self.size)[self.right]
        # scores take math.log, as the rule-by-rule loops always did
        self.log_weight, self.lex_log = (
            np.array([math.log(w) if w > 0 else NEG_INF for w in ws.tolist()])
            for ws in (self.weight, self.lex_weight))
        self.log_unary = [(k, ids[a], ids[b], math.log(w))
                          for k, (a, b, w, _) in enumerate(unary, nb) if w > 0]
        # Viterbi: each parent's rules, padded with repeats that lose ties
        self.heads = np.array(sorted(set(self.parent.tolist())), np.int64)
        groups = [np.flatnonzero(self.parent == h) for h in self.heads]
        width = max(map(len, groups), default=1)
        self.by_head = np.array(
            [np.pad(r, (0, width - len(r)), "edge") for r in groups],
            dtype=np.int64).reshape(-1, width)
        u = np.zeros((self.n_nt, self.n_nt))
        u[self.u_lhs, self.u_child] = self.u_weight
        try:
            self.closure = np.linalg.inv(np.eye(self.n_nt) - u)
        except np.linalg.LinAlgError:
            self.closure = None
        if self.closure is None or np.any(self.closure < -1e-9):
            raise EstimationError("%sunary rule cycle with mass >= 1" % (
                "%s: " % g.source if g.source else ""))

    def entries(self, x):
        """Position and index of each lexical entry of the words of x."""
        return np.array([(i, k) for i, t in enumerate(x) for k in range(
            *self.lexicon.get(t, (0, 0)))], dtype=np.int64).reshape(-1, 2).T


def _splits(chart, w):
    """Views of the split parts of the width-w spans: left[d - 1, i] is (i,
    i + d), right[d - 1, i] is (i + d, i + w), a strided line in the chart."""
    m, st = chart.shape[1] - w, chart.strides
    right = np.ndarray((w - 1, m) + chart.shape[2:], chart.dtype, chart,
                       (w - 1) * st[0] + st[1], (st[1] - st[0],) + st[1:])
    return chart[1:w, :m], right


def _rescale(base, closure, exp):
    """Close each row of ``base`` (a span's values times 2**-exp[row])
    under the unary rules (None: there are none), and scale it to a maximum
    in [0.5, 1)."""
    if closure is not None:
        nt = base[:, :len(closure)]
        closed = np.array([closure @ v for v in nt])   # per span, as always
        base[:, :len(closure)] = np.where(closed > 0.0, closed, nt)
    top = base.max(axis=1)
    shift = np.frexp(top)[1]
    return (np.ldexp(base, -shift[:, None]),
            np.where(top > 0.0, exp + shift, ZERO_EXP))


def inside_outside(g, x):
    """String log-marginal and expected rule counts via Inside-Outside.

    Unparsable strings yield log_marginal -inf with all-zero expectations.
    """
    x = list(x)
    if not x:
        raise EstimationError("empty terminal string")
    fg = g.factored()
    n = len(x)
    nb, nu = len(fg.parent), len(fg.u_lhs)
    closure = fg.closure if nu else None
    # inside[w, i] * 2**exps[w, i] is the span (i, i + w)
    inside = np.zeros((n + 1, n + 1, fg.size))
    exps = np.full((n + 1, n + 1), ZERO_EXP)
    pos, k = fg.entries(x)
    inside[1, pos, fg.lex_lhs[k]] = fg.lex_weight[k]
    inside[1, :n], exps[1, :n] = _rescale(inside[1, :n], closure, 0)
    cells = np.arange(n)[:, None] * fg.size + fg.parent
    tops = [0, 0]   # tops[w]: the exponent width w's splits are summed at
    for w in range(2, n + 1):
        m = n + 1 - w
        (left, right), s = _splits(inside, w), np.add(*_splits(exps, w))
        tops.append(s.max(axis=0))
        # a rule-by-rule loop's products, summed over splits in its order
        acc = (np.ldexp(left, (s - tops[w])[..., None])[..., fg.left]
               * right[..., fg.right]).sum(axis=0)
        base = np.bincount(cells[:m].ravel(), (fg.weight * acc).ravel(),
                           m * fg.size)   # adds in rule order
        inside[w, :m], exps[w, :m] = _rescale(
            base.reshape(m, -1), closure, tops[w])
    zm, ze = inside[n, 0, fg.start], int(exps[n, 0])
    if zm <= 0.0:
        return SentenceExpectations(NEG_INF, np.zeros(len(g.rules)), g.rules)
    z = math.ldexp(zm, ze)
    log_z = (math.log(z) if z >= sys.float_info.min
             else math.log(zm) + ze * math.log(2.0))

    # grad[w, i] = d log Z / d inside[w, i], widest first; through scaling
    # and closure it is gv: times a rule's term, that rule's expected count.
    grad = np.zeros_like(inside)
    grad[n, 0, fg.start] = 1.0 / zm
    expected = np.zeros(nb + nu + len(fg.lex_lhs))   # by slot
    for w in range(n, 0, -1):
        m = n + 1 - w
        shift = (exps[w, :m] - tops[w])[:, None]
        gv = np.ldexp(grad[w, :m], -shift)
        if closure is not None:
            gv[:, :fg.n_nt] = gv[:, :fg.n_nt] @ closure
            expected[nb:nb + nu] += (
                fg.u_weight * gv[:, fg.u_lhs]
                * np.ldexp(inside[w, :m][:, fg.u_child], shift)).sum(axis=0)
        if w == 1:
            break
        (left, right), s = _splits(inside, w), np.add(*_splits(exps, w))
        left, right = left[..., fg.left], right[..., fg.right]
        gp = np.ldexp(fg.weight * gv[:, fg.parent], (s - tops[w])[..., None])
        gl = gp * left
        expected[:nb] += (gl * right).sum(axis=(0, 1))
        grad_left, grad_right = _splits(grad, w)
        grad_left += (gp * right) @ fg.to_left
        grad_right += gl @ fg.to_right
    expected[nb + nu:] += np.bincount(
        k, fg.lex_weight[k] * gv[pos, fg.lex_lhs[k]], len(fg.lex_lhs))
    return SentenceExpectations(log_z, expected[fg.slot], g.rules)


# ---------------------------------------------------------------------------
# Conditional likelihood, its gradient, and MCLE gradient ascent.

THETA_FLOOR = 1e-12
MAX_SHRINKS = 20   # line-search halvings before an ascent step gives up
LINE_SEARCH_SHRINK = 0.5   # the step-size factor of one halving


class _Treebank:
    """A treebank compiled once for the corpus pass.  Sentence ``sid`` is
    distinct tree ``tree_ids[sid]`` and yield ``yield_ids[sid]``, both
    numbered in order of first appearance.  A tree is keyed by its rule
    counts in the order ``tree_log_prob`` sums them, so equal keys score
    equal bits; trees with one key may still differ in yield.  A ``Tree``
    is unhashable, so its rule counts stand in for it."""

    def __init__(self, corpus):
        trees, yields = {}, {}
        self.trees, self.tree_ids, self.yield_ids = [], [], []
        for t in corpus:
            tid = trees.setdefault(tuple(tree_productions(t).items()),
                                   len(trees))
            if tid == len(self.trees):
                self.trees.append(t)
            self.tree_ids.append(tid)
            self.yield_ids.append(
                yields.setdefault(tuple(tree_yield(t)), len(yields)))
        self.yields = list(yields)

    def stats(self, g):
        """``corpus_stats`` of the treebank under ``g``, its expected counts
        an array by rule id: one ``tree_log_prob`` per distinct tree and one
        ``inside_outside`` per distinct yield, at its first sentence; the
        sums still add one term per sentence, in corpus order."""
        tlps, exps = [None] * len(self.trees), [None] * len(self.yields)
        tlp_sum = marg_sum = 0.0
        for sid, (tid, yid) in enumerate(zip(self.tree_ids, self.yield_ids)):
            if tlps[tid] is None:
                tlps[tid] = tree_log_prob(g, self.trees[tid])
                if tlps[tid] == NEG_INF:
                    raise EstimationError(
                        "tree %r is not derivable under the grammar" % (sid,))
            if exps[yid] is None:
                exps[yid] = inside_outside(g, self.yields[yid])
                if not exps[yid].parsable:
                    raise EstimationError(
                        "yield of tree %r is unparsable" % (sid,))
            tlp_sum += tlps[tid]
            marg_sum += exps[yid].log_marginal
        rows = [exps[yid].counts for yid in self.yield_ids]
        expected = np.cumsum([np.zeros(len(g.rules))] + rows, axis=0)[-1]
        if not np.isfinite(expected).all():
            raise EstimationError("yield of tree %d has non-finite expected "
                                  "counts" % np.isfinite(rows).all(1).argmin())
        return tlp_sum, marg_sum, expected


def corpus_stats(g, corpus):
    """(sum of tree log probabilities, sum of yield log marginals, summed
    expected rule counts, the nonzero ones keyed by rule) of a treebank: the
    terms of the conditional log-likelihood and its gradient."""
    tlp, marg, expected = _Treebank(corpus).stats(g)
    return tlp, marg, {r: c for r, c in zip(g.rules, expected.tolist()) if c}


def cll_gradient(g, corpus):
    """Gradient of the conditional log-likelihood with respect to theta (a
    rule the corpus uses has a positive weight, or the pass refuses it)."""
    _, _, expected = _Treebank(corpus).stats(g)
    counts = extract_counts(corpus).counts
    observed = np.array([counts.get(r, 0.0) for r in g.rules])
    theta = np.maximum([g.theta[r] for r in g.rules], THETA_FLOOR)
    return dict(zip(g.rules, ((observed - expected) / theta).tolist()))


def _eg_step(g, direction, eta):
    """Exponentiated-gradient step theta * exp(eta * direction), renormalized
    per nonterminal over its run of rule ids, summed left to right
    (direction = theta * grad = observed - expected, by rule id)."""
    _, starts, run = np.unique([r.lhs for r in g.rules], return_index=True,
                               return_inverse=True)
    e = eta * direction
    e = (e - np.maximum.reduceat(e, starts)[run]).tolist()
    raw = np.array([g.theta[r] * math.exp(v) for r, v in zip(g.rules, e)])
    totals = np.bincount(run, raw)   # adds in rule order
    return Pcfg(g.start, dict(zip(g.rules, (raw / totals[run]).tolist())))


def estimate_mcle(corpus, init, cfg=None, trace=None):
    """Maximize conditional likelihood by gradient ascent on the simplex.

    Starts from ``init`` (normally the MLE grammar).  Uses a multiplicative
    update with backtracking line search, so the CLL trace (appended to
    ``trace`` if given) is monotone non-decreasing.
    """
    cfg = cfg or AscentConfig()
    counts = extract_counts(corpus).counts
    observed = np.array([counts.get(r, 0.0) for r in init.rules])
    treebank = _Treebank(corpus)
    g = init
    tlp, marg, expected = treebank.stats(g)
    cll = tlp - marg
    if trace is not None:
        trace.append(cll)
    for _ in range(cfg.max_iters):
        direction = observed - expected
        eta = cfg.initial_step
        for _ in range(MAX_SHRINKS):
            cand = _eg_step(g, direction, eta)
            tlp_c, marg_c, exp_c = treebank.stats(cand)
            if tlp_c - marg_c > cll:
                break
            eta *= LINE_SEARCH_SHRINK
        else:
            break
        improvement = tlp_c - marg_c - cll
        g, cll, expected = cand, tlp_c - marg_c, exp_c
        if trace is not None:
            trace.append(cll)
        if improvement < cfg.tol * (abs(cll) + 1e-12):
            break
    return g


# ---------------------------------------------------------------------------
# CKY Viterbi parsing.

def viterbi_parse(g, x):
    """Most probable parse of x, or None if x is not in the grammar's
    language.  Ties are broken deterministically (rule order, then smallest
    split point)."""
    x = list(x)
    if not x:
        raise EstimationError("empty terminal string")
    fg = g.factored()
    n = len(x)
    # back: the binary rule of a cell's score, its unary rule's slot, or -1
    best = np.full((n + 1, n + 1, fg.size), NEG_INF)
    back = np.full(best.shape, -1)
    pos, k = fg.entries(x)
    best[1, pos, fg.lex_lhs[k]] = fg.lex_log[k]
    for w in range(1, n + 1):
        m = n + 1 - w
        if w > 1:
            left, right = _splits(best, w)
            # a rule loop's sums; a tie goes to the first rule, first split
            sc = (fg.log_weight + left[..., fg.left]) + right[..., fg.right]
            by_rule = sc.max(axis=0)
            r = fg.by_head[np.arange(len(fg.heads)),
                           by_rule[:, fg.by_head].argmax(axis=2)]
            best[w, :m, fg.heads] = np.take_along_axis(by_rule, r, 1).T
            back[w, :m, fg.heads] = r.T
        # unary rules: bounded relaxation in rule order, strict improvements
        cells, backs = best[w, :m], back[w, :m]
        for _ in range(fg.n_nt if fg.log_unary else 0):
            changed = False
            for slot, lhs, child, lw in fg.log_unary:
                sc = lw + cells[:, child]
                up = sc > cells[:, lhs]
                cells[up, lhs], backs[up, lhs] = sc[up], slot
                changed |= up.any()
            if not changed:
                break
    if best[n, 0, fg.start] == NEG_INF:
        return None
    return _backtrace(fg, x, best, back)


def _backtrace(fg, x, best, back):
    """The tree of the start symbol over all of x, read off the back
    pointers without recursion, so a parse of any depth builds.  An
    intermediate symbol's children join its parent's; a binary rule takes
    its first best split."""
    nb = len(fg.parent)
    nodes, todo = [], [(fg.start, 0, len(x), [])]   # nodes: (label, kid ids)
    while todo:
        sym, i, j, siblings = todo.pop()
        if not fg.n_nt <= sym < fg.n_chart:   # not an intermediate
            siblings.append(len(nodes))
            nodes.append((fg.symbols[sym], []))
            siblings = nodes[-1][1]
        if sym >= fg.n_chart:   # a terminal of a binary rule
            continue
        r = back[j - i, i, sym]
        if r < 0:
            siblings.append(len(nodes))
            nodes.append((x[i], ()))
        elif r >= nb:
            todo.append((fg.u_child[r - nb], i, j, siblings))
        else:
            left, right = _splits(best, j - i)
            k = i + 1 + ((fg.log_weight[r] + left[:, i, fg.left[r]])
                         + right[:, i, fg.right[r]]).argmax()
            todo += [(fg.right[r], k, j, siblings),
                     (fg.left[r], i, k, siblings)]
    # every node's children come after it
    built = [None] * len(nodes)
    for idx in range(len(nodes) - 1, -1, -1):
        label, kids = nodes[idx]
        built[idx] = Tree(label, [built[k] for k in kids])
    return built[0]


# ---------------------------------------------------------------------------
# Grammar persistence.

GRAMMAR_SCHEMA = {"meta": {"start": str},
                  "rules": (str, str, modelfile.number)}  # lhs, rhs, weight


def save_grammar(g, path):
    modelfile.write(path, [
        ("meta", [("start", g.start)]),
        ("rules", [(r.lhs, " ".join(r.rhs), g.theta[r]) for r in g.rules])])


def load_grammar(path):
    f = modelfile.read(path, GRAMMAR_SCHEMA, EstimationError)
    try:
        g = Pcfg(f["meta"]["start"],
                 {Production(lhs, tuple(rhs.split(" "))): w
                  for lhs, rhs, w in f["rules"]})
    except EstimationError as e:
        raise EstimationError("%s: %s" % (path, e)) from None
    g.source = path   # a unary cycle surfaces at the first parse
    return g
