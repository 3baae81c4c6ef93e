"""Independent brute-force oracles and random-instance generators.

Everything here is deliberately naive: exhaustive enumeration and direct
products of probabilities, with no dynamic programming, so it can serve as
a reference for the chart/lattice/beam implementations.
"""

import importlib.util
import itertools
import logging
import math
import os
import sys
import types
from collections import Counter, defaultdict, deque
from typing import NamedTuple

import numpy as np

from condest.evaluation import (BootstrapResult, EvalError,
                                bootstrap_iterations, bootstrap_seed,
                                sentence_rows)
from condest.hmm import END, UNK, UNK_THRESHOLD, TaggingError
from condest.interp import Coder, CondTable, InterpolatedCondDist, bucket_id
from condest.pcfg import (LINE_SEARCH_SHRINK, MAX_SHRINKS, NEG_INF, ZERO_EXP,
                          AscentConfig, EstimationError, Pcfg, Production,
                          RuleCounts, SentenceExpectations, inside_outside,
                          tree_log_prob)
from condest.shiftreduce import (ARITY, SHIFT, STAR, BeamConfig, Move,
                                 ParserError, shift, tree_from_moves)
from condest.trees import (MARKER, HeadRules, Tree, TreebankError,
                           postorder, tree_yield)


BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")


def bench_module(name):
    """``bench/<name>.py`` as a module: the benchmark's generators and jobs
    (``bench/`` is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# PCFG: rule counts, one tree at a time over its post-order and its yield,
# kept verbatim as the reference for the one-walk counts of ``pcfg``.

def tree_productions_reference(t):
    """Usage counts of productions in a single tree, keyed in reverse
    post-order: that order fixes the sum order of ``tree_log_prob``."""
    out = defaultdict(int)
    for node in reversed(postorder(t)):
        if node.children:
            out[Production(node.label,
                           tuple(c.label for c in node.children))] += 1
    return out


def extract_counts_reference(corpus):
    """Exact production usage counts over a corpus of stripped trees; a
    leaf that is also a node label would be read as a nonterminal."""
    trees = list(corpus)
    if not trees:
        raise EstimationError("empty corpus")
    counts = defaultdict(float)
    for t in trees:
        for r, c in tree_productions_reference(t).items():
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


# ---------------------------------------------------------------------------
# PCFG: exhaustive parse enumeration.

def enumerate_parses(g, x):
    """All parse trees of x under g, by memoized span enumeration.

    Assumes the grammar has no unary nonterminal cycles (the generators
    below guarantee this).
    """
    x = list(x)
    by_lhs = defaultdict(list)
    for rule in g.rules:
        by_lhs[rule.lhs].append(rule)
    memo = {}

    def parses(sym, i, j):
        key = (sym, i, j)
        if key in memo:
            return memo[key]
        out = []
        for rule in sorted(by_lhs[sym]):
            for kids in expansions(rule.rhs, i, j):
                out.append(Tree(sym, kids))
        memo[key] = out
        return out

    def expansions(rhs, i, j):
        if not rhs:
            return [[]] if i == j else []
        head, rest = rhs[0], rhs[1:]
        # no epsilon rules, so every remaining symbol needs >= 1 terminal;
        # this also keeps the head span strictly smaller than (i, j) except
        # for the last symbol, making the recursion well-founded
        ends = [j] if not rest else range(i + 1, j - len(rest) + 1)
        out = []
        if g.is_nonterminal(head):
            for k in ends:
                subs = parses(head, i, k)
                if not subs:
                    continue
                for tail in expansions(rest, k, j):
                    for s in subs:
                        out.append([s] + tail)
        else:
            if i < j and x[i] == head:
                for tail in expansions(rest, i + 1, j):
                    out.append([Tree(head)] + tail)
        return out

    return parses(g.start, 0, len(x))


def tree_prob(g, t):
    p = 1.0
    for r, c in tree_productions_reference(t).items():
        p *= g.theta[r] ** c
    return p


def brute_marginal_and_expectations(g, x):
    """(log marginal, expected rule counts) by full enumeration."""
    parses = enumerate_parses(g, x)
    z = sum(tree_prob(g, t) for t in parses)
    if z <= 0.0:
        return float("-inf"), {}
    expected = defaultdict(float)
    for t in parses:
        w = tree_prob(g, t) / z
        for r, c in tree_productions_reference(t).items():
            expected[r] += w * c
    return math.log(z), dict(expected)


def random_grammar(rng, max_nts=4, max_rules=6, unary=True):
    """Small random PCFG without unary nonterminal cycles (unary rules only
    point from lower-indexed to higher-indexed nonterminals); with ``unary``
    false it has no unary rules at all."""
    n_nt = rng.randint(2, max_nts)
    nts = ["N%d" % i for i in range(n_nt)]
    terms = ["a", "b"]
    rules = set()
    for i, lhs in enumerate(nts):
        rules.add(Production(lhs, (rng.choice(terms),)))
    while len(rules) < max_rules:
        i = rng.randrange(n_nt)
        lhs = nts[i]
        shape = rng.random()
        if shape < 0.25 and unary and i + 1 < n_nt:
            rhs = (nts[rng.randint(i + 1, n_nt - 1)],)
        elif shape < 0.85:
            rhs = tuple(rng.choice(nts + terms) for _ in range(2))
        else:
            rhs = tuple(rng.choice(nts + terms) for _ in range(3))
        rules.add(Production(lhs, rhs))
    theta = {}
    by_lhs = defaultdict(list)
    for r in sorted(rules):
        by_lhs[r.lhs].append(r)
    for lhs in sorted(by_lhs):
        rs = by_lhs[lhs]
        weights = [rng.random() + 0.1 for _ in rs]
        tot = sum(weights)
        for r, w in zip(sorted(rs), sorted(weights)):
            theta[r] = w / tot
    return Pcfg(nts[0], theta), terms


def sample_tree_from_grammar(g, rng, max_depth=8):
    """Generative sample; None when the depth bound is hit."""
    by_lhs = defaultdict(list)
    for r in g.rules:
        by_lhs[r.lhs].append(r)

    def expand(sym, depth):
        if not g.is_nonterminal(sym):
            return Tree(sym)
        if depth > max_depth:
            return None
        rs = sorted(by_lhs[sym])
        u = rng.random()
        acc = 0.0
        rule = rs[-1]
        for r in rs:
            acc += g.theta[r]
            if u < acc:
                rule = r
                break
        kids = []
        for s in rule.rhs:
            sub = expand(s, depth + 1)
            if sub is None:
                return None
            kids.append(sub)
        return Tree(sym, kids)

    return expand(g.start, 0)


class RawGrammar:
    """Grammar shim over an *unnormalized* weight dict, for probing the
    conditional log-likelihood as a function of free rule weights."""

    def __init__(self, start, theta):
        self.start = start
        self.theta = dict(theta)
        self.rules = set(self.theta)
        self._nts = {r.lhs for r in self.rules}

    def is_nonterminal(self, sym):
        return sym in self._nts


def raw_cll(start, theta, corpus):
    """Conditional log-likelihood at free weights, by full enumeration."""
    g = RawGrammar(start, theta)
    total = 0.0
    for t in corpus:
        num = tree_prob(g, t)
        den = sum(tree_prob(g, p) for p in enumerate_parses(g, tree_yield(t)))
        total += math.log(num) - math.log(den)
    return total


def corpus_stats_reference(g, corpus):
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


# ---------------------------------------------------------------------------
# PCFG: MCLE gradient ascent over Production-keyed dicts, as it was before
# counts travelled as arrays by rule id, kept verbatim as a bit-for-bit
# reference on the per-sentence corpus pass.

def _direction(g, observed, expected):
    """Observed minus expected count of each rule: theta times the CLL
    gradient, the direction an MCLE step takes."""
    return {r: observed.get(r, 0.0) - expected.get(r, 0.0) for r in g.rules}


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


def estimate_mcle_reference(corpus, init, cfg=None, trace=None):
    """Maximize conditional likelihood by gradient ascent on the simplex.

    Starts from ``init`` (normally the MLE grammar).  Uses a multiplicative
    update with backtracking line search, so the CLL trace (appended to
    ``trace`` if given) is monotone non-decreasing.
    """
    cfg = cfg or AscentConfig()
    observed = extract_counts_reference(corpus).counts
    g = init
    tlp, marg, expected = corpus_stats_reference(g, corpus)
    cll = tlp - marg
    if trace is not None:
        trace.append(cll)
    for _ in range(cfg.max_iters):
        direction = _direction(g, observed, expected)
        eta = cfg.initial_step
        for _ in range(MAX_SHRINKS):
            cand = _eg_step(g, direction, eta)
            tlp_c, marg_c, exp_c = corpus_stats_reference(cand, corpus)
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
# PCFG: the Inside-Outside chart kernel before its per-width work was
# trimmed, kept verbatim but for its name and its result's shape (counts by
# rule id) as a bit-for-bit reference.

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


def inside_outside_reference(g, x):
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
        return SentenceExpectations(NEG_INF, np.zeros(len(g.rules)), g.rules)
    z = math.ldexp(zm, ze)
    log_z = (math.log(z) if z >= sys.float_info.min
             else math.log(zm) + ze * math.log(2.0))

    # grad[w, i] = d log Z / d inside[w, i], widest first; through scaling
    # and closure it is gv: times a rule's term, that rule's expected count.
    grad = np.zeros_like(inside)
    grad[n, 0, fg.start] = 1.0 / zm
    expected = np.zeros(len(fg.parent) + len(fg.u_lhs) + len(fg.lex_lhs))
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
    return SentenceExpectations(log_z, expected[fg.slot], g.rules)


# ---------------------------------------------------------------------------
# PCFG: CKY Viterbi with its own width loop, as it stood before the chart
# sweeps shared one generator, kept verbatim but for its name as a
# bit-for-bit reference for the parse it picks.

def viterbi_parse_reference(g, x):
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
# Count tables: dicts of dicts, one ``add`` at a time.

class DictCondTable:
    """Reference for ``interp.CondTable``: counts of (context, outcome)
    pairs in dicts of dicts, contexts and each context's outcomes in
    first-seen order, every count and total added as it comes."""

    def __init__(self):
        self.counts = defaultdict(dict)   # ctx -> {outcome: count}
        self.totals = defaultdict(float)  # ctx -> total count

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


def coded_table(pairs, width, weights=None):
    """An ``interp.CondTable`` of (context, outcome) pairs, every context
    ``width`` symbols long: each field's symbols, and the outcomes, are
    numbered in order of first appearance.  Pair i adds ``weights[i]`` if
    given."""
    pairs = list(pairs)
    assert all(len(ctx) == width for ctx, _out in pairs)
    fields, outs = [{} for _ in range(width)], {}
    rows = [[ids.setdefault(sym, len(ids)) for ids, sym in zip(fields, ctx)]
            for ctx, _out in pairs]
    cols = [outs.setdefault(out, len(outs)) for _ctx, out in pairs]
    coder = Coder(fields)
    return CondTable(coder, coder.code(np.array(rows, dtype=np.int64).reshape(
        -1, width).T), cols, list(outs), weights)


# ---------------------------------------------------------------------------
# Deleted interpolation: the EM for mixture weights as a plain loop.

def fit_mixture_weights_loop(events, k, max_iters=100, tol=1e-7):
    """Reference for ``interp.fit_mixture_weights``: the same EM, one event
    at a time, bucket by bucket in order of first appearance."""
    by_bucket = defaultdict(list)
    for bucket, probs in events:
        if any(p > 0.0 for p in probs):
            by_bucket[bucket].append(probs)

    uniform = tuple([1.0 / k] * k)
    lambdas = {b: uniform for b in by_bucket}
    trace = []
    prev_ll = None
    for _ in range(max_iters):
        ll = 0.0
        new = {}
        for b, items in by_bucket.items():
            lam = lambdas[b]
            acc = [0.0] * k
            for probs in items:
                mix = 0.0
                for l, p in zip(lam, probs):
                    mix += l * p
                ll += math.log(mix)
                for i in range(k):
                    acc[i] += lam[i] * probs[i] / mix
            tot = 0.0
            for a in acc:
                tot += a
            new[b] = tuple(a / tot for a in acc) if tot > 0 else uniform
        trace.append(ll)
        lambdas = new
        if prev_ll is not None:
            if ll - prev_ll < tol * (abs(prev_ll) + 1.0):
                break
        prev_ll = ll
    return lambdas, trace


# ---------------------------------------------------------------------------
# Tagging: the count tables one ``add`` at a time.

def words_loop(word_counts):
    """An object whose ``map_word`` maps a word by its raw count: rare
    words (below UNK_THRESHOLD) become UNK."""
    return types.SimpleNamespace(
        map_word=lambda w: w if w == END
        or word_counts.get(w, 0) >= UNK_THRESHOLD else UNK)


def collect_tables_loop(train):
    """Reference for ``hmm.collect_tables``: (raw word counts, {table name:
    DictCondTable}) with one ``add`` per table and position, each sentence
    framed by its own end markers."""
    word_counts = defaultdict(float)
    for words, _tags in train:
        for w in words:
            word_counts[w] += 1

    map_word = words_loop(word_counts).map_word

    names = ("trans", "emit", "emit_prev", "tag_given_word",
             "tag_given_prevword", "full0", "full1")
    tables = {name: DictCondTable() for name in names}
    for words, tags in train:
        ws = [END] + [map_word(w) for w in words] + [END]
        ts = [END] + list(tags) + [END]
        for j in range(1, len(ws)):
            w, t = ws[j], ts[j]
            wp, tp = ws[j - 1], ts[j - 1]
            tables["trans"].add((tp,), t)
            tables["emit"].add((t,), w)
            tables["emit_prev"].add((tp,), w)
            tables["tag_given_word"].add((w,), t)
            tables["tag_given_prevword"].add((wp,), t)
            tables["full0"].add((w, tp), t)
            tables["full1"].add((wp, tp), t)
    return word_counts, tables


def heldout_events_loop(tables, heldout, target):
    """Reference for the heldout events of a tagger mixture: ((w, t_prev),
    t) for "pr0", ((w_prev, t_prev), t) for "pr1", words mapped by
    ``tables.map_word``."""
    back = 0 if target == "pr0" else 1
    events = []
    for words, tags in heldout:
        ws = [END] + [tables.map_word(w) for w in words] + [END]
        ts = [END] + list(tags) + [END]
        events += [((ws[j - back], ts[j - 1]), ts[j])
                   for j in range(1, len(ws))]
    return events


REFERENCE_MIXTURES = {
    "pr0": (("tag_given_word", (0,)), ("trans", (1,)), ("full0", (0, 1))),
    "pr1": (("tag_given_prevword", (0,)), ("trans", (1,)), ("full1", (0, 1))),
}


def fit_tagger_mixture_loop(word_counts, tables, heldout, target):
    """Reference for a tagger mixture's fit over ``collect_tables_loop``:
    each heldout event's bucket and component probabilities read one
    lookup at a time; returns (lambdas, trace)."""
    comps = [(tables[name], idx) for name, idx in REFERENCE_MIXTURES[target]]
    events = [(bucket_id(comps[-1][0].total(ctx)),
               tuple(table.prob(tuple(ctx[j] for j in idx), t)
                     for table, idx in comps))
              for ctx, t in heldout_events_loop(words_loop(word_counts),
                                                heldout, target)]
    return fit_mixture_weights_loop(events, len(comps))


class ReferenceTagger:
    """Reference for ``hmm.TaggerModel``'s position factor and lattice: the
    factor of one position at a time, every entry read from dict tables one
    context at a time.  ``model`` supplies the variant and the mixture
    weights; ``word_counts`` and ``tables`` are those of
    ``collect_tables_loop``."""

    def __init__(self, model, word_counts, tables):
        self.variant = model.variant
        self.tables = tables
        self.map_word = words_loop(word_counts).map_word
        self.tagset = tuple(sorted({t for _ctx, t, _c in
                                    tables["trans"].items()} - {END}))
        self.index = {s: i for i, s in enumerate(self.tagset + (END,))}
        self.trans = tables["trans"].matrix([(s,) for s in self.index],
                                            self.index)
        self.mixtures = {
            target: InterpolatedCondDist(
                [(tables[name], idx) for name, idx in comps], mix.lambdas)
            for target, comps in REFERENCE_MIXTURES.items()
            for mix in [model.mixture] if mix is not None}

    def _given_tag(self, name, w):
        return np.array([[self.tables[name].prob((s,), w)]
                         for s in self.index])

    def _mixture(self, target, word):
        mix = self.mixtures[target]
        (by_word, _), _, (full, _) = mix.components
        ctxs = [(word, s) for s in self.index]
        lam = np.array([mix.weights(c) for c in ctxs])
        return (lam[:, 0:1] * by_word.matrix([(word,)], self.index)
                + lam[:, 1:2] * self.trans
                + lam[:, 2:3] * full.matrix(ctxs, self.index))

    def edge_weight(self, wprev, w):
        if self.variant == "joint":
            return self.trans * self._given_tag("emit", w).T
        if self.variant == "conditional":
            return self._mixture("pr0", w)
        if self.variant == "joint-prevword":
            return self._given_tag("emit", w).T * self._mixture("pr1", wprev)
        return self._mixture("pr0", w) * self._given_tag("emit_prev", w)

    def lattice(self, words):
        """(first, [mats], final), or raises TaggingError, as
        ``TaggerModel._lattice``."""
        n = len(self.tagset)
        ws = [END] + [self.map_word(w) for w in words] + [END]
        m = len(words)
        blocks = []
        for j in range(1, m + 2):
            at = (n if j == 1 else slice(n), n if j == m + 1 else slice(n))
            block = self.edge_weight(ws[j - 1], ws[j])[at]
            if block.max() <= 0.0:
                block = self.trans[at]
                if block.max() <= 0.0:
                    raise TaggingError(
                        "no tag can reach the end marker" if j > m else
                        "no tag has nonzero probability at position %d" % j)
            blocks.append(np.ascontiguousarray(block))
        return blocks[0], blocks[1:-1], blocks[-1]


# ---------------------------------------------------------------------------
# Tagging: brute-force lattice enumeration.

def brute_tag_marginals(model, words):
    """Per-position posterior marginals by enumerating all tag sequences."""
    tags = model.tables.tagset
    m = len(words)
    z = 0.0
    pos = [defaultdict(float) for _ in range(m)]
    for seq in itertools.product(tags, repeat=m):
        lp = model.sequence_log_prob(words, seq)
        if lp == float("-inf"):
            continue
        p = math.exp(lp)
        z += p
        for j, t in enumerate(seq):
            pos[j][t] += p
    if z <= 0.0:
        return None
    return [{t: v / z for t, v in d.items()} for d in pos]


def brute_tag_partition(model, words):
    tags = model.tables.tagset
    total = 0.0
    for seq in itertools.product(tags, repeat=len(words)):
        lp = model.sequence_log_prob(words, seq)
        if lp > float("-inf"):
            total += math.exp(lp)
    return math.log(total) if total > 0 else float("-inf")


def brute_tag_decode(model, words):
    """Minimum expected Hamming loss decode from brute-force marginals;
    ties to the lexicographically smallest tag."""
    marg = brute_tag_marginals(model, words)
    out = []
    for d in marg:
        best_t, best_p = None, -1.0
        for t in sorted(model.tables.tagset):
            p = d.get(t, 0.0)
            if p > best_p:
                best_t, best_p = t, p
        out.append(best_t)
    return tuple(out)


# ---------------------------------------------------------------------------
# Shift-reduce: label stacks as tuples, and the oracle replay over them,
# kept as the reference for the list stack of ``shiftreduce.replay``.

def stack_top2(stack):
    """(s1, s2): top and next-to-top labels, STAR when absent."""
    s1 = stack[-1] if len(stack) >= 1 else STAR
    s2 = stack[-2] if len(stack) >= 2 else STAR
    return s1, s2


def apply_move(stack, move):
    """Moves are partial functions from stacks to stacks (label tuples)."""
    arity = ARITY.get(move.kind)
    if arity is None:
        raise ParserError("unknown move kind %r" % (move.kind,))
    if len(stack) < arity:
        raise ParserError("stack too short for %s" % (move.kind,))
    return stack[:len(stack) - arity] + (move.label,)


def replay_reference(moves, words):
    """(s1, s2, lookahead, move) along a move sequence over ``words``; every
    shift must match the input, and the moves must consume all of it."""
    sentence = list(words) + [STAR]
    stack = ()
    shifted = 0
    for move in moves:
        s1, s2 = stack_top2(stack)
        lookahead = sentence[shifted] if shifted < len(sentence) else None
        if move.kind == SHIFT:
            if move.label != lookahead:
                raise ParserError(
                    "shift %r does not match input at position %d"
                    % (move.label, shifted))
            shifted += 1
        yield s1, s2, lookahead, move
        stack = apply_move(stack, move)
    if shifted != len(sentence):
        raise ParserError("move sequence did not consume the input")


# ---------------------------------------------------------------------------
# Shift-reduce: brute-force move-sequence enumeration.

def enumerate_sr_parses(model, words, max_moves=None):
    """All complete parses (moves, logp) of ``words`` with nonzero
    probability, in lexicographic move order."""
    sentence = list(words) + [STAR]
    if max_moves is None:
        max_moves = 4 * len(sentence) + 8
    results = []

    def rec(stack, shifted, moves, logp):
        if len(moves) > max_moves:
            raise RuntimeError("move bound exceeded; model allows cycles")
        if moves and moves[-1].kind == SHIFT and moves[-1].label == STAR:
            results.append((tuple(moves), logp))
            return
        s1, s2 = stack_top2(stack)
        lookahead = sentence[shifted]
        probs = model.move_probs(s1, s2, lookahead=lookahead)
        for move in sorted(probs):
            if move.kind == SHIFT and move.label != lookahead:
                continue
            new_shifted = shifted + (1 if move.kind == SHIFT else 0)
            rec(apply_move(stack, move), new_shifted, moves + [move],
                logp + math.log(probs[move]))

    rec((), 0, [], 0.0)
    return results


def brute_sr_best(model, words):
    """(moves, logp) of the argmax parse, ties by lexicographic moves."""
    parses = enumerate_sr_parses(model, words)
    if not parses:
        return None
    return min(parses, key=lambda mp: (-mp[1], mp[0]))


# ---------------------------------------------------------------------------
# Shift-reduce: the tuple-state beam, kept as the reference for the
# back-pointer beam of ``shiftreduce.beam_parse``.  Each state carries its
# whole move sequence and label stack.

log = logging.getLogger(__name__)


class _State(NamedTuple):
    logp: float
    moves: tuple
    labels: tuple   # stack labels, bottom to top


def _better(a, b):
    """Preference order: higher score, then lexicographically smaller moves."""
    if a.logp != b.logp:
        return a.logp > b.logp
    return a.moves < b.moves


def beam_parse_reference(model, words, cfg=None):
    """Best-first beam parse; returns the highest-scoring complete parse
    (debinarize-ready) or None when the beam empties.

    States sharing a prefix length form one pruning class: a state scoring
    below threshold * best-in-class is dropped, as is (optionally) any state
    whose top two stack labels were never observed in training.
    """
    cfg = cfg or BeamConfig()
    words = list(words)
    if not words:
        raise ParserError("empty sentence")
    sentence = words + [STAR]
    log_thr = math.log(cfg.threshold)

    def keep(state):
        if not cfg.require_observed_pairs:
            return True
        return stack_top2(state.labels) in model.observed_pairs

    frontier = {(): _State(0.0, (), ())}
    best_complete = None
    truncated = []   # (word position, states dropped) past max_states
    for k, lookahead in enumerate(sentence):
        # close the class under reduce moves
        pool = dict(frontier)
        best_logp = max((s.logp for s in pool.values()), default=float("-inf"))
        worklist = deque(sorted(pool.values(),
                                key=lambda s: (-s.logp, s.moves)))
        while worklist:
            state = worklist.popleft()
            if pool.get(state.labels) is not state:
                continue  # superseded
            reduces, _ = model.move_view(*stack_top2(state.labels), lookahead)
            for move, lp in reduces:
                new = _apply_to_state(state, move, lp)
                if new.logp < best_logp + log_thr or not keep(new):
                    continue
                cur = pool.get(new.labels)
                if cur is None or _better(new, cur):
                    pool[new.labels] = new
                    worklist.append(new)
                    best_logp = max(best_logp, new.logp)
        states = [s for s in pool.values() if s.logp >= best_logp + log_thr]
        if len(states) > cfg.max_states:
            truncated.append((k, len(states) - cfg.max_states))
            states.sort(key=lambda s: (-s.logp, s.moves))
            states = states[:cfg.max_states]
        # shift the look-ahead (or accept with the final STAR shift)
        frontier = {}
        for state in states:
            _, shifts = model.move_view(*stack_top2(state.labels), lookahead)
            lp = shifts.get(lookahead)
            if lp is None:
                continue
            new = _apply_to_state(state, shift(lookahead), lp)
            if lookahead == STAR:
                if best_complete is None or _better(new, best_complete):
                    best_complete = new
            elif keep(new):
                cur = frontier.get(new.labels)
                if cur is None or _better(new, cur):
                    frontier[new.labels] = new
        if not frontier and lookahead != STAR:
            break
    if truncated:
        log.warning("beam_parse dropped states past max_states=%d: %s",
                    cfg.max_states, ", ".join("%d at word position %d" % (n, k)
                                              for k, n in truncated))
    return (None if best_complete is None
            else tree_from_moves(best_complete.moves))


def _apply_to_state(state, move, logp):
    return _State(state.logp + logp, state.moves + (move,),
                  apply_move(state.labels, move))


# ---------------------------------------------------------------------------
# Evaluation: labelled brackets by recursion, one frame per tree level.

def brackets_reference(t):
    """Multiset of (start, end, label) spans, one per internal node."""
    out = Counter()

    def walk(node, i):
        if node.is_leaf():
            return i + 1
        j = i
        for c in node.children:
            j = walk(c, j)
        out[(i, j, node.label)] += 1
        return j

    walk(t, 0)
    return out


def _prf_reference(matched, gold, predicted):
    p = matched / predicted if predicted else 1.0
    r = matched / gold if gold else 1.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def bootstrap_test_reference(gold, pred_a, pred_b, iterations=10000, seed=0):
    """The bootstrap with one generator per iteration: each draws its sentences
    with ``np.random.default_rng((seed, it)).integers(0, n, n)`` and scores
    them with scalar arithmetic."""
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
        return _prf_reference(ma, ga, pa)[2] - _prf_reference(mb, gb, pb)[2]

    observed = delta(np.arange(n))
    extreme = 0
    for it in range(iterations):
        rng = np.random.default_rng((seed, it))
        idx = rng.integers(0, n, n)
        if abs(delta(idx) - observed) >= abs(observed):
            extreme += 1
    return BootstrapResult(extreme / iterations, iterations, seed,
                           float(observed))


# ---------------------------------------------------------------------------
# Tree transforms by recursion, one or two frames per tree level.  They
# check each node before its children, so on a tree with several faults
# they may name another node than the post-order walk does.

def strip_lexical_reference(t):
    if t.is_leaf():
        raise TreebankError("cannot strip a bare leaf %r" % t.label)
    if len(t.children) == 1 and t.children[0].is_leaf():
        return Tree(t.label)
    kids = []
    for c in t.children:
        if c.is_leaf():
            raise TreebankError(
                "leaf %r under %r has siblings; not a preterminal"
                % (c.label, t.label))
        kids.append(strip_lexical_reference(c))
    return Tree(t.label, kids)


def binarize_reference(t, rules=None):
    if rules is None:
        rules = HeadRules()
    if MARKER in t.label:
        raise TreebankError("label %r contains the binarization marker %r"
                            % (t.label, MARKER))
    if t.is_leaf():
        return t
    kids = [binarize_reference(c, rules) for c in t.children]
    n = len(kids)
    if n <= 2:
        return Tree(t.label, kids)
    h = rules.head_index(t.label, [c.label for c in t.children])
    cur = kids[h]
    for j in range(h + 1, n):
        cur = Tree(cur.label + MARKER + "2", (cur, kids[j]))
    for j in range(h - 1, -1, -1):
        cur = Tree(cur.label + MARKER + "1", (kids[j], cur))
    return Tree(t.label, cur.children)


def debinarize_reference(t):
    def splice_into(node, out):
        if not node.is_leaf() and node.label.endswith((MARKER + "1",
                                                       MARKER + "2")):
            for c in node.children:
                splice_into(c, out)
        else:
            out.append(debinarize_reference(node))

    if t.is_leaf():
        return t
    kids = []
    for c in t.children:
        splice_into(c, kids)
    return Tree(t.label, kids)


def oracle_moves_reference(t):
    kinds = {arity: kind for kind, arity in ARITY.items()}
    out = []

    def walk(node):
        kind = kinds.get(len(node.children))
        if kind is None:
            raise ParserError(
                "node %r has %d children; binarize first"
                % (node.label, len(node.children)))
        for child in node.children:
            walk(child)
        out.append(Move(kind, node.label))

    walk(t)
    out.append(shift(STAR))
    return out


# ---------------------------------------------------------------------------
# Random trees.

def random_nary_tree(rng, labels=("S", "X", "Y", "Z"), terminals=("a", "b", "c"),
                     max_children=4, max_depth=4, allow_unary=True):
    """Random rooted tree; internal labels from ``labels``, root label
    labels[0]."""

    def build(depth, label):
        if depth >= max_depth:
            return Tree(rng.choice(terminals))
        lo = 1 if allow_unary else 2
        n = rng.randint(lo, max_children)
        kids = []
        for _ in range(n):
            if depth + 1 >= max_depth or rng.random() < 0.4:
                kids.append(Tree(rng.choice(terminals)))
            else:
                kids.append(build(depth + 1, rng.choice(labels[1:])))
        return Tree(label, kids)

    return build(0, labels[0])


def random_binary_tree(rng, leaves, labels=("X", "Y"), root="S"):
    """Random strictly binary tree over the given leaf symbols."""

    def build(symbols, label):
        if len(symbols) == 1:
            return Tree(symbols[0])
        k = rng.randint(1, len(symbols) - 1)
        left = build(symbols[:k], rng.choice(labels))
        right = build(symbols[k:], rng.choice(labels))
        return Tree(label, (left, right))

    if len(leaves) == 1:
        # smallest parse: unary root over the single terminal
        return Tree(root, (Tree(leaves[0]),))
    return build(list(leaves), root)
