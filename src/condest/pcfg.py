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
from typing import NamedTuple

import numpy as np

from . import modelfile
from .trees import Tree, tree_yield

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
        by_lhs = defaultdict(float)
        for rule, w in sorted(theta.items()):   # sums not in hash order
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
        self.theta = {r: w / scale[r.lhs] for r, w in theta.items()}
        self.start = start
        self.nonterminals = frozenset(by_lhs)
        if start not in self.nonterminals:
            raise EstimationError("start symbol %r has no rules" % (start,))
        self.rules = frozenset(self.theta)
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


@dataclass
class SentenceExpectations:
    log_marginal: float
    expected_counts: dict

    @property
    def parsable(self):
        return self.log_marginal > float("-inf")


@dataclass
class AscentConfig:
    max_iters: int = 200
    tol: float = 1e-6
    initial_step: float = 1.0

    def __post_init__(self):
        if self.max_iters <= 0 or self.tol <= 0 or self.initial_step <= 0:
            raise ValueError("AscentConfig fields must be positive")


def tree_productions(t):
    """Usage counts of productions in a single tree."""
    out = defaultdict(int)
    stack = [t]
    while stack:
        node = stack.pop()
        if node.is_leaf():
            continue
        rule = Production(node.label, tuple(c.label for c in node.children))
        out[rule] += 1
        stack.extend(node.children)
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
    terminals of binary rules.  Rules are index arrays in sorted-rule order;
    ``rules`` names the rule of each binary, unary and lexical slot."""

    def __init__(self, g):
        lexical, unary, binary, inter = [], [], [], []
        for ridx, (rule, w) in enumerate(sorted(g.theta.items())):
            lhs, rhs = rule
            if len(rhs) == 1:
                (unary if g.is_nonterminal(rhs[0]) else lexical).append(
                    (lhs, rhs[0], w, rule))
                continue
            prev = rhs[0]
            for i in range(2, len(rhs)):
                inter.append(("#", ridx, i))
                binary.append((inter[-1], prev, rhs[i - 1], 1.0, None))
                prev = inter[-1]
            binary.append((lhs, prev, rhs[-1], w, rule))
        nts = sorted(g.nonterminals)
        terms = sorted({s for b in binary for s in b[1:3]}
                       - set(nts) - set(inter))
        self.symbols = nts + inter + terms
        self.size, self.n_nt = len(self.symbols), len(nts)
        self.n_chart = len(nts) + len(inter)
        ids = {s: i for i, s in enumerate(self.symbols)}
        self.start = ids[g.start]
        # a word's entries: its lexical rules, or an entry onto its own id
        lexical = sorted(lexical + [(t, t, 1.0, None) for t in terms],
                         key=lambda r: r[1])
        self.lexicon = {}   # word -> (start, end) of its entries
        for k, r in enumerate(lexical):
            self.lexicon[r[1]] = (self.lexicon.get(r[1], (k,))[0], k + 1)
        self.rules = [r[-1] for r in binary + unary + lexical]
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
    under the unary rules, and scale it to a maximum in [0.5, 1)."""
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
    # inside[w, i] * 2**exps[w, i] is the span (i, i + w)
    inside = np.zeros((n + 1, n + 1, fg.size))
    exps = np.full((n + 1, n + 1), ZERO_EXP)
    pos, k = fg.entries(x)
    inside[1, pos, fg.lex_lhs[k]] = fg.lex_weight[k]
    inside[1, :n], exps[1, :n] = _rescale(inside[1, :n], fg.closure, 0)
    for w in range(2, n + 1):
        m = n + 1 - w
        (left, right), s = _splits(inside, w), np.add(*_splits(exps, w))
        top = s.max(axis=0)   # the splits are summed at this exponent
        # a rule-by-rule loop's products, summed over splits in its order
        acc = (np.ldexp(left, (s - top)[..., None])[..., fg.left]
               * right[..., fg.right]).sum(axis=0)
        cells = np.arange(m)[:, None] * fg.size + fg.parent
        base = np.bincount(cells.ravel(), (fg.weight * acc).ravel(),
                           m * fg.size)   # adds in rule order
        inside[w, :m], exps[w, :m] = _rescale(
            base.reshape(m, -1), fg.closure, top)
    zm, ze = inside[n, 0, fg.start], int(exps[n, 0])
    if zm <= 0.0:
        return SentenceExpectations(NEG_INF, {})
    z = math.ldexp(zm, ze)
    log_z = (math.log(z) if z >= sys.float_info.min
             else math.log(zm) + ze * math.log(2.0))

    # grad[w, i] = d log Z / d inside[w, i], widest first; through scaling
    # and closure it is gv: times a rule's term, that rule's expected count.
    grad = np.zeros_like(inside)
    grad[n, 0, fg.start] = 1.0 / zm
    expected = np.zeros(len(fg.rules))
    nb, nu = len(fg.parent), len(fg.u_lhs)
    for w in range(n, 0, -1):
        m = n + 1 - w
        (left, right), s = _splits(inside, w), np.add(*_splits(exps, w))
        top = s.max(axis=0) if w > 1 else 0
        shift = (exps[w, :m] - top)[:, None]
        gv = np.ldexp(grad[w, :m], -shift)
        gv[:, :fg.n_nt] = gv[:, :fg.n_nt] @ fg.closure
        expected[nb:nb + nu] += (
            fg.u_weight * gv[:, fg.u_lhs]
            * np.ldexp(inside[w, :m][:, fg.u_child], shift)).sum(axis=0)
        if w == 1:
            break
        left, right = left[..., fg.left], right[..., fg.right]
        gp = np.ldexp(fg.weight * gv[:, fg.parent], (s - top)[..., None])
        expected[:nb] += (gp * left * right).sum(axis=(0, 1))
        grad_left, grad_right = _splits(grad, w)
        grad_left += (gp * right) @ fg.to_left
        grad_right += (gp * left) @ fg.to_right
    expected[nb + nu:] += np.bincount(
        k, fg.lex_weight[k] * gv[pos, fg.lex_lhs[k]], len(fg.lex_lhs))
    return SentenceExpectations(log_z, {
        r: c for r, c in zip(fg.rules, expected.tolist())
        if r is not None and c != 0.0})


# ---------------------------------------------------------------------------
# Conditional likelihood, its gradient, and MCLE gradient ascent.

THETA_FLOOR = 1e-12
MAX_SHRINKS = 20   # line-search halvings before an ascent step gives up
LINE_SEARCH_SHRINK = 0.5   # the step-size factor of one halving


def corpus_stats(g, corpus):
    """(sum of tree log probabilities, sum of yield log marginals, summed
    expected rule counts) of a treebank: the terms of the conditional
    log-likelihood and its gradient.  Inside-Outside runs once per distinct
    yield; the sums still take the sentences in corpus order."""
    tlp_sum = marg_sum = 0.0
    expected, by_yield = defaultdict(float), {}
    for sid, t in enumerate(corpus):
        tlp = tree_log_prob(g, t)
        if tlp == NEG_INF:
            raise EstimationError(
                "tree %r is not derivable under the grammar" % (sid,))
        x = tuple(tree_yield(t))
        exp = by_yield[x] = by_yield.get(x) or inside_outside(g, x)
        if not exp.parsable:
            raise EstimationError("yield of tree %r is unparsable" % (sid,))
        tlp_sum += tlp
        marg_sum += exp.log_marginal
        for r, c in exp.expected_counts.items():
            expected[r] += c
    return tlp_sum, marg_sum, expected


def _direction(g, observed, expected):
    """Observed minus expected count of each rule: theta times the CLL
    gradient, the direction an MCLE step takes."""
    return {r: observed.get(r, 0.0) - expected.get(r, 0.0) for r in g.rules}


def cll_gradient(g, corpus):
    """Gradient of the conditional log-likelihood with respect to theta."""
    _, _, expected = corpus_stats(g, corpus)
    observed = extract_counts(corpus).counts
    grad = {}
    for r, diff in _direction(g, observed, expected).items():
        theta = g.theta[r]
        if theta <= 0.0 and observed.get(r, 0.0) > 0.0:
            raise EstimationError("zero-probability rule %s has count" % (r,))
        grad[r] = diff / max(theta, THETA_FLOOR)
    return grad


def _eg_step(g, direction, eta):
    """Exponentiated-gradient step theta * exp(eta * direction), renormalized
    per nonterminal (direction = theta * grad = observed - expected)."""
    exps = {r: eta * direction.get(r, 0.0) for r in g.rules}
    mx = defaultdict(lambda: float("-inf"))
    for r, e in exps.items():
        mx[r.lhs] = max(mx[r.lhs], e)
    raw = {r: g.theta[r] * math.exp(exps[r] - mx[r.lhs]) for r in g.rules}
    totals = defaultdict(float)
    for r, w in sorted(raw.items()):   # sums not in hash order
        totals[r.lhs] += w
    return Pcfg(g.start, {r: w / totals[r.lhs] for r, w in raw.items()})


def estimate_mcle(corpus, init, cfg=None, trace=None):
    """Maximize conditional likelihood by gradient ascent on the simplex.

    Starts from ``init`` (normally the MLE grammar).  Uses a multiplicative
    update with backtracking line search, so the CLL trace (appended to
    ``trace`` if given) is monotone non-decreasing.
    """
    cfg = cfg or AscentConfig()
    observed = extract_counts(corpus).counts
    g = init
    tlp, marg, expected = corpus_stats(g, corpus)
    cll = tlp - marg
    if trace is not None:
        trace.append(cll)
    for _ in range(cfg.max_iters):
        direction = _direction(g, observed, expected)
        eta = cfg.initial_step
        for _ in range(MAX_SHRINKS):
            cand = _eg_step(g, direction, eta)
            tlp_c, marg_c, exp_c = corpus_stats(cand, corpus)
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
    n, nb = len(x), len(fg.parent)
    # back: the binary rule of a cell's score, nb + its unary rule, or -1
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

    def build(sym, i, j):
        """Tree for an original symbol; list of trees for an intermediate."""
        name = fg.symbols[sym]
        if sym >= fg.n_chart:
            return Tree(name)
        r = back[j - i, i, sym]
        if r < 0:
            return Tree(name, (Tree(x[i]),))
        if r >= nb:
            return Tree(name, (build(fg.u_child[r - nb], i, j),))
        left, right = _splits(best, j - i)   # the rule's first best split
        k = i + 1 + ((fg.log_weight[r] + left[:, i, fg.left[r]])
                     + right[:, i, fg.right[r]]).argmax()
        kids = []
        for part in (build(fg.left[r], i, k), build(fg.right[r], k, j)):
            kids += part if isinstance(part, list) else [part]
        return kids if fg.rules[r] is None else Tree(name, kids)

    tree, build = build(fg.start, 0, n), None   # no cycle keeps the charts
    return tree


# ---------------------------------------------------------------------------
# Grammar persistence.

GRAMMAR_SCHEMA = {"meta": {"start": str},
                  "rules": (str, str, modelfile.number)}  # lhs, rhs, weight


def save_grammar(g, path):
    modelfile.write(path, [
        ("meta", [("start", g.start)]),
        ("rules", [(r.lhs, " ".join(r.rhs), g.theta[r])
                   for r in sorted(g.theta)])])


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
