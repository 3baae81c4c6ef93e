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
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import modelfile
from .trees import Tree

log = logging.getLogger(__name__)

NORM_TOL = 1e-6


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
        for rule, w in theta.items():
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
    line_search_shrink: float = 0.5
    max_shrinks: int = 20

    def __post_init__(self):
        if self.max_iters <= 0 or self.tol <= 0 or self.initial_step <= 0:
            raise ValueError("AscentConfig fields must be positive")
        if not 0 < self.line_search_shrink < 1:
            raise ValueError("line_search_shrink must be in (0,1)")


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
    """Exact production usage counts over a corpus of stripped trees."""
    trees = list(corpus)
    if not trees:
        raise EstimationError("empty corpus")
    counts = defaultdict(float)
    for t in trees:
        for r, c in tree_productions(t).items():
            counts[r] += c
    totals = defaultdict(float)
    for r, c in counts.items():
        totals[r.lhs] += c
    return RuleCounts(dict(counts), dict(totals), start=trees[0].label)


def estimate_mle(counts, start=None):
    """Relative-frequency estimator: theta = count / lhs total."""
    start = start if start is not None else counts.start
    for lhs, tot in counts.lhs_totals.items():
        if tot <= 0:
            raise EstimationError("nonterminal %r has zero total count" % (lhs,))
    theta = {r: c / counts.lhs_totals[r.lhs] for r, c in counts.counts.items()}
    return Pcfg(start, theta)


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
# Left-factored unary/binary form.

class _FactoredGrammar:
    def __init__(self, g):
        self.start = g.start
        self.nonterminals = sorted(g.nonterminals)
        self._nt_index = {a: i for i, a in enumerate(self.nonterminals)}
        self.term_unary = []   # (lhs, terminal, weight, rule)
        self.nt_unary = []     # (lhs, rhs nonterminal, weight, rule)
        self.binary = []       # (parent sym, left sym, right sym, weight, rule|None)
        self.intermediates = []
        for ridx, (rule, w) in enumerate(sorted(g.theta.items())):
            lhs, rhs = rule
            if len(rhs) == 1:
                if g.is_nonterminal(rhs[0]):
                    self.nt_unary.append((lhs, rhs[0], w, rule))
                else:
                    self.term_unary.append((lhs, rhs[0], w, rule))
            elif len(rhs) == 2:
                self.binary.append((lhs, rhs[0], rhs[1], w, rule))
            else:
                prev = ("#", ridx, 2)
                self.intermediates.append(prev)
                self.binary.append((prev, rhs[0], rhs[1], 1.0, None))
                for i in range(3, len(rhs)):
                    sym = ("#", ridx, i)
                    self.intermediates.append(sym)
                    self.binary.append((sym, prev, rhs[i - 1], 1.0, None))
                    prev = sym
                self.binary.append((lhs, prev, rhs[-1], w, rule))
        self.chart_symbols = set(self.nonterminals) | set(self.intermediates)
        n = len(self.nonterminals)
        u = np.zeros((n, n))
        for lhs, b, w, _rule in self.nt_unary:
            u[self._nt_index[lhs], self._nt_index[b]] += w
        eye = np.eye(n)
        try:
            self._closure = np.linalg.inv(eye - u)
        except np.linalg.LinAlgError:
            raise EstimationError("divergent unary rule cycle") from None
        if np.any(self._closure < -1e-9):
            raise EstimationError("unary rule cycle with unit mass")

    def close_inside(self, base):
        """Apply unary closure to a span's {symbol: inside} dict in place."""
        vec = np.array([base.get(a, 0.0) for a in self.nonterminals])
        closed = self._closure @ vec
        for a, v in zip(self.nonterminals, closed):
            if v > 0.0:
                base[a] = v

    def close_outside(self, base):
        vec = np.array([base.get(a, 0.0) for a in self.nonterminals])
        closed = self._closure.T @ vec
        for a, v in zip(self.nonterminals, closed):
            if v > 0.0:
                base[a] = v


def _span_inside(fg, chart, sym, i, j, x):
    if sym in fg.chart_symbols:
        return chart[(i, j)].get(sym, 0.0)
    # terminal symbol
    return 1.0 if j == i + 1 and x[i] == sym else 0.0


def inside_outside(g, x):
    """String log-marginal and expected rule counts via Inside-Outside.

    Unparsable strings yield log_marginal -inf with all-zero expectations.
    """
    x = list(x)
    if not x:
        raise EstimationError("empty terminal string")
    fg = g.factored()
    n = len(x)
    inside = {}
    for w in range(1, n + 1):
        for i in range(n - w + 1):
            j = i + w
            base = {}
            if w == 1:
                for lhs, term, wt, _rule in fg.term_unary:
                    if x[i] == term:
                        base[lhs] = base.get(lhs, 0.0) + wt
            for parent, ls, rs, wt, _rule in fg.binary:
                acc = 0.0
                for k in range(i + 1, j):
                    li = _span_inside(fg, inside, ls, i, k, x)
                    if li == 0.0:
                        continue
                    ri = _span_inside(fg, inside, rs, k, j, x)
                    if ri != 0.0:
                        acc += li * ri
                if acc != 0.0:
                    base[parent] = base.get(parent, 0.0) + wt * acc
            fg.close_inside(base)
            inside[(i, j)] = base

    z = inside[(0, n)].get(fg.start, 0.0)
    if z <= 0.0:
        return SentenceExpectations(float("-inf"), {})

    outside = {span: {} for span in inside}
    outside[(0, n)][fg.start] = 1.0
    expected = defaultdict(float)
    for w in range(n, 0, -1):
        for i in range(n - w + 1):
            j = i + w
            obase = outside[(i, j)]
            fg.close_outside(obase)
            # unary expectations on this span
            for lhs, b, wt, rule in fg.nt_unary:
                op = obase.get(lhs, 0.0)
                if op == 0.0:
                    continue
                ip = inside[(i, j)].get(b, 0.0)
                if ip != 0.0:
                    expected[rule] += wt * op * ip / z
            if w == 1:
                for lhs, term, wt, rule in fg.term_unary:
                    op = obase.get(lhs, 0.0)
                    if op != 0.0 and x[i] == term:
                        expected[rule] += wt * op / z
                continue
            # binary expectations and outside propagation to children
            for parent, ls, rs, wt, rule in fg.binary:
                op = obase.get(parent, 0.0)
                if op == 0.0:
                    continue
                for k in range(i + 1, j):
                    li = _span_inside(fg, inside, ls, i, k, x)
                    if li == 0.0:
                        continue
                    ri = _span_inside(fg, inside, rs, k, j, x)
                    if ri == 0.0:
                        continue
                    contrib = wt * op * li * ri
                    if rule is not None:
                        expected[rule] += contrib / z
                    if ls in fg.chart_symbols:
                        d = outside[(i, k)]
                        d[ls] = d.get(ls, 0.0) + wt * op * ri
                    if rs in fg.chart_symbols:
                        d = outside[(k, j)]
                        d[rs] = d.get(rs, 0.0) + wt * op * li
    return SentenceExpectations(math.log(z), dict(expected))


# ---------------------------------------------------------------------------
# Conditional likelihood, its gradient, and MCLE gradient ascent.

THETA_FLOOR = 1e-12


def _corpus_stats(g, corpus):
    """Per-corpus sums: tree log probs, yield log marginals, expectations."""
    from .trees import tree_yield
    tlp_sum = 0.0
    marg_sum = 0.0
    expected = defaultdict(float)
    for sid, t in zip(corpus.ids, corpus):
        tlp = tree_log_prob(g, t)
        if tlp == float("-inf"):
            raise EstimationError(
                "tree %r is not derivable under the grammar" % (sid,))
        exp = inside_outside(g, tree_yield(t))
        if not exp.parsable:
            raise EstimationError("yield of tree %r is unparsable" % (sid,))
        tlp_sum += tlp
        marg_sum += exp.log_marginal
        for r, c in exp.expected_counts.items():
            expected[r] += c
    return tlp_sum, marg_sum, expected


def conditional_log_likelihood(g, corpus):
    """Sum over sentences of log P(y_i) - log sum_{y in tau(x_i)} P(y)."""
    tlp_sum, marg_sum, _ = _corpus_stats(g, corpus)
    return tlp_sum - marg_sum


def cll_gradient(g, corpus):
    """Gradient of the conditional log-likelihood with respect to theta."""
    _, _, expected = _corpus_stats(g, corpus)
    observed = defaultdict(float)
    for t in corpus:
        for r, c in tree_productions(t).items():
            observed[r] += c
    grad = {}
    for r in g.rules:
        diff = observed.get(r, 0.0) - expected.get(r, 0.0)
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
    for r, w in raw.items():
        totals[r.lhs] += w
    return Pcfg(g.start, {r: w / totals[r.lhs] for r, w in raw.items()})


def estimate_mcle(corpus, init, cfg=None, trace=None):
    """Maximize conditional likelihood by gradient ascent on the simplex.

    Starts from ``init`` (normally the MLE grammar).  Uses a multiplicative
    update with backtracking line search, so the CLL trace (appended to
    ``trace`` if given) is monotone non-decreasing.
    """
    cfg = cfg or AscentConfig()
    observed = defaultdict(float)
    for t in corpus:
        for r, c in tree_productions(t).items():
            observed[r] += c
    g = init
    tlp, marg, expected = _corpus_stats(g, corpus)
    cll = tlp - marg
    if trace is not None:
        trace.append(cll)
    for _ in range(cfg.max_iters):
        direction = {r: observed.get(r, 0.0) - expected.get(r, 0.0)
                     for r in g.rules}
        eta = cfg.initial_step
        accepted = None
        for _ in range(cfg.max_shrinks):
            cand = _eg_step(g, direction, eta)
            tlp_c, marg_c, exp_c = _corpus_stats(cand, corpus)
            if tlp_c - marg_c > cll:
                accepted = (cand, tlp_c - marg_c, exp_c)
                break
            eta *= cfg.line_search_shrink
        if accepted is None:
            break
        g_new, cll_new, expected = accepted
        improvement = cll_new - cll
        g, cll = g_new, cll_new
        if trace is not None:
            trace.append(cll)
        if improvement < cfg.tol * (abs(cll) + 1e-12):
            break
    return g


# ---------------------------------------------------------------------------
# CKY Viterbi parsing.

NEG_INF = float("-inf")


def viterbi_parse(g, x):
    """Most probable parse of x, or None if x is not in the grammar's
    language.  Ties are broken deterministically (rule order, then smallest
    split point)."""
    x = list(x)
    if not x:
        raise EstimationError("empty terminal string")
    fg = g.factored()
    n = len(x)
    logw_term = [(l, t, math.log(w), r) for l, t, w, r in fg.term_unary if w > 0]
    logw_unary = [(l, b, math.log(w), r) for l, b, w, r in fg.nt_unary if w > 0]
    logw_binary = [(p, ls, rs, math.log(w), r)
                   for p, ls, rs, w, r in fg.binary if w > 0]
    best = {}   # (i, j) -> {sym: score}
    back = {}   # (i, j, sym) -> backpointer

    def get(sym, i, j):
        if sym in fg.chart_symbols:
            return best[(i, j)].get(sym, NEG_INF)
        return 0.0 if j == i + 1 and x[i] == sym else NEG_INF

    for w in range(1, n + 1):
        for i in range(n - w + 1):
            j = i + w
            scores = {}
            if w == 1:
                for lhs, term, lw, rule in logw_term:
                    if x[i] == term and lw > scores.get(lhs, NEG_INF):
                        scores[lhs] = lw
                        back[(i, j, lhs)] = ("t", rule)
            for parent, ls, rs, lw, rule in logw_binary:
                for k in range(i + 1, j):
                    li = get(ls, i, k)
                    if li == NEG_INF:
                        continue
                    ri = get(rs, k, j)
                    if ri == NEG_INF:
                        continue
                    sc = lw + li + ri
                    if sc > scores.get(parent, NEG_INF):
                        scores[parent] = sc
                        back[(i, j, parent)] = ("b", ls, rs, k, rule)
            best[(i, j)] = scores
            # unary closure: bounded relaxation, deterministic order
            for _ in range(len(fg.nonterminals)):
                changed = False
                for lhs, b, lw, rule in logw_unary:
                    bi = scores.get(b, NEG_INF)
                    if bi == NEG_INF:
                        continue
                    sc = lw + bi
                    if sc > scores.get(lhs, NEG_INF):
                        scores[lhs] = sc
                        back[(i, j, lhs)] = ("u", b, rule)
                        changed = True
                if not changed:
                    break

    if best[(0, n)].get(fg.start, NEG_INF) == NEG_INF:
        return None

    def build(sym, i, j):
        """Tree for an original symbol; list of trees for an intermediate."""
        if sym not in fg.chart_symbols:
            return Tree(sym)
        bp = back[(i, j, sym)]
        if bp[0] == "t":
            rule = bp[1]
            node = Tree(rule.lhs, (Tree(rule.rhs[0]),))
        elif bp[0] == "u":
            _, b, rule = bp
            node = Tree(rule.lhs, (build(b, i, j),))
        else:
            _, ls, rs, k, rule = bp
            left = build(ls, i, k)
            right = build(rs, k, j)
            kids = (left if isinstance(left, list) else [left]) \
                + (right if isinstance(right, list) else [right])
            if rule is None:
                return kids
            node = Tree(rule.lhs, kids)
        return node

    return build(fg.start, 0, n)


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
    return Pcfg(f["meta"]["start"],
                {Production(lhs, tuple(rhs.split(" "))): w
                 for lhs, rhs, w in f["rules"]})
