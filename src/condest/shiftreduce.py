"""Stochastic shift-reduce parsers over binarized trees.

A parse is a sequence of moves (shift, reduce-one, reduce-two) mapping the
empty stack to [start-symbol, *].  The joint model conditions each move on
the top two stack labels; the conditional model additionally conditions on
the look-ahead symbol and may only shift that symbol.  Both enforce the
structural zeros that keep every move applicable, by masking the estimated
distribution to the allowed move set and renormalizing.
"""

import functools
import logging
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from . import modelfile
from .interp import CondTable, InterpolatedCondDist, fit_interpolation
from .trees import Tree, debinarize, tree_yield

log = logging.getLogger(__name__)

STAR = "*"

SHIFT = "shift"
REDUCE1 = "reduce1"
REDUCE2 = "reduce2"
# How many stack items each move kind pops before pushing its label.
ARITY = {SHIFT: 0, REDUCE1: 1, REDUCE2: 2}


class ParserError(ValueError):
    pass


class Move(NamedTuple):
    kind: str
    label: str


shift = functools.partial(Move, SHIFT)
reduce1 = functools.partial(Move, REDUCE1)
reduce2 = functools.partial(Move, REDUCE2)


def _cut(stack, move, floor=0):
    """Where a move cuts a stack: the items from ``cut`` on are popped
    (they become the children of the pushed label), the rest stay.  The
    ``floor`` items at the bottom are sentinels, never popped."""
    arity = ARITY.get(move.kind)
    if arity is None:
        raise ParserError("unknown move kind %r" % (move.kind,))
    cut = len(stack) - arity
    if cut < floor:
        raise ParserError("stack too short for %s" % (move.kind,))
    return cut


def oracle_moves(t):
    """The move sequence whose replay from the empty stack rebuilds t.

    Requires a binarized tree (every internal node unary or binary); ends
    with the accepting shift of STAR.
    """
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


def tree_from_moves(moves):
    """Replay a complete move sequence back into a tree."""
    stack = ()  # Tree nodes
    for move in moves:
        cut = _cut(stack, move)
        stack = stack[:cut] + (Tree(move.label, stack[cut:]),)
    if len(stack) != 2 or stack[1].label != STAR:
        raise ParserError("move sequence is not a complete parse")
    return stack[0]


@dataclass
class BeamConfig:
    threshold: float = 1e-6          # ratio against the best same-prefix state
    require_observed_pairs: bool = True
    max_states: int = 10000          # out-of-memory guard per prefix class

    def __post_init__(self):
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")


def _cond_components(joint_table, full_table):
    """The conditional flavor's mixture of P(m|s1,s2) and P(m|s1,s2,w).
    Finest component last: bucketing keys off the (s1, s2, w) count."""
    return [(joint_table, (0, 1)), (full_table, (0, 1, 2))]


class MoveModel:
    """Move distribution with structural zeros: conditional with the
    mixture, joint without.  The observed (s1, s2) pairs are the joint
    table's contexts."""

    def __init__(self, start, joint_table, cond_mixture=None):
        self.flavor = "joint" if cond_mixture is None else "conditional"
        self.start = start
        self.joint_table = joint_table          # P(m | s1, s2)
        self.cond_mixture = cond_mixture        # mixes P(m|s1,s2,w), P(m|s1,s2)
        self.observed_pairs = frozenset(joint_table.contexts())
        self._views = {}   # context -> move_view, filled on first query

    def allowed(self, move, s1, s2, lookahead=None):
        """Structural constraints: moves must be applicable and the accept
        shift only fires on the final [start] stack; the conditional model
        may only shift its look-ahead symbol."""
        if move.kind == REDUCE1:
            return s1 != STAR
        if move.kind == REDUCE2:
            return s2 != STAR
        if move.label == STAR:
            return s1 == self.start and s2 == STAR
        if self.flavor == "conditional":
            return move.label == lookahead
        return True

    def move_probs(self, s1, s2, lookahead=None):
        """Distribution over allowed moves in this context (renormalized
        after masking; empty dict for a dead context)."""
        if self.flavor == "conditional" and lookahead is None:
            raise ParserError("conditional model needs a look-ahead symbol")
        if self.flavor == "joint":
            candidates = self.joint_table.dist((s1, s2))
        else:
            candidates = self.cond_mixture.dist((s1, s2, lookahead))
        masked = {m: p for m, p in candidates.items()
                  if p > 0.0 and self.allowed(m, s1, s2, lookahead)}
        # left to right: from Python 3.12 builtin sum rounds otherwise
        total = functools.reduce(operator.add, masked.values(), 0.0)
        if total <= 0.0:
            return {}
        return {m: p / total for m, p in masked.items()}

    def move_view(self, s1, s2, lookahead=None):
        """``move_probs`` of a context as the beam reads it: the allowed
        non-shift moves in sorted order, each with its log-probability, and
        {shift label: log-probability}.  Derived on the context's first
        query and kept, so counts added to the tables later are not seen."""
        key = (s1, s2, lookahead if self.flavor == "conditional" else None)
        view = self._views.get(key)
        if view is None:
            probs = self.move_probs(s1, s2, lookahead)
            view = self._views[key] = (
                tuple((m, math.log(p)) for m, p in sorted(probs.items())
                      if m.kind != SHIFT),
                {m.label: math.log(p) for m, p in probs.items()
                 if m.kind == SHIFT})
        return view


def replay(moves, words):
    """(s1, s2, lookahead, move) along a move sequence over ``words``; every
    shift must match the input, and the moves must consume all of it."""
    sentence = list(words) + [STAR]
    stack = [STAR, STAR]   # two sentinels below the labels: (s1, s2) on top
    shifted = 0
    for move in moves:
        lookahead = sentence[shifted] if shifted < len(sentence) else None
        if move.kind == SHIFT:
            if move.label != lookahead:
                raise ParserError(
                    "shift %r does not match input at position %d"
                    % (move.label, shifted))
            shifted += 1
        yield stack[-1], stack[-2], lookahead, move
        del stack[_cut(stack, move, 2):]
        stack.append(move.label)
    if shifted != len(sentence):
        raise ParserError("move sequence did not consume the input")


def oracle_events(trees):
    """(s1, s2, lookahead, move) along each tree's oracle moves, in order."""
    for t in trees:
        yield from replay(oracle_moves(t), tree_yield(t))


def estimate_joint(train):
    """Relative-frequency move model P(m | s1, s2) from binarized trees."""
    trees = list(train)
    if not trees:
        raise ParserError("empty training corpus")
    table = CondTable(((s1, s2), move)
                      for s1, s2, _la, move in oracle_events(trees))
    return MoveModel(trees[0].label, table)


def estimate_conditional(train, heldout):
    """Conditional move model: bucketed mixture of P(m|s1,s2,w) and
    P(m|s1,s2), weights fitted on heldout trees."""
    trees = list(train)
    held = list(heldout)
    if not trees or not held:
        raise ParserError("empty training or heldout corpus")
    events = list(oracle_events(trees))
    full = CondTable(((s1, s2, la), move) for s1, s2, la, move in events)
    coarse = CondTable(((s1, s2), move) for s1, s2, _la, move in events)
    mixture = fit_interpolation(
        _cond_components(coarse, full),
        (((s1, s2, la), move) for s1, s2, la, move in oracle_events(held)))
    return MoveModel(trees[0].label, coarse, mixture)


def parse_log_prob(model, moves, words):
    """Log probability of a complete move sequence for ``words``."""
    lp = 0.0
    for s1, s2, lookahead, move in replay(moves, words):
        reduces, shifts = model.move_view(s1, s2, lookahead)
        move_lp = (shifts.get(move.label) if move.kind == SHIFT
                   else dict(reduces).get(move))
        if move_lp is None:
            return float("-inf")
        lp += move_lp
    return lp


# ---------------------------------------------------------------------------
# Beam search, synchronized on the number of words shifted.  A state is a
# tuple (logp, parent, move, sid): its score, the state it extends by
# ``move`` (None for the start state), and the id of its label stack in the
# parse's _Stacks.  Its move sequence is read back along the parents only
# where two states tie exactly on logp.

class _Stacks:
    """The label stacks of one parse, interned: a stack is an int id, 0 the
    empty stack, and a move maps an id to an id with one dict lookup."""

    def __init__(self):
        self.ids = {}                  # (id below, top label) -> id
        self.down = [(0, None, None)]  # id -> ids after popping 0, 1, 2 labels
        self.pair = [(STAR, STAR)]     # id -> (s1, s2), STAR where absent

    def apply(self, sid, move):
        """The id of the stack ``sid`` after ``move``."""
        arity = ARITY.get(move.kind)
        if arity is None:
            raise ParserError("unknown move kind %r" % (move.kind,))
        base = self.down[sid][arity]
        if base is None:
            raise ParserError("stack too short for %s" % (move.kind,))
        key = (base, move.label)
        new = self.ids.get(key)
        if new is None:
            new = self.ids[key] = len(self.pair)
            self.down.append((new, base, self.down[base][1]))
            self.pair.append((move.label, self.pair[base][0]))
        return new


def _moves(state):
    """A state's move sequence, read back along its parents."""
    moves = []
    while state[1] is not None:
        moves.append(state[2])
        state = state[1]
    return tuple(reversed(moves))


def _better(a, b):
    """Preference order: higher score, then lexicographically smaller moves."""
    if a[0] != b[0]:
        return a[0] > b[0]
    return _moves(a) < _moves(b)


# (-logp, moves) order as a sort key; no two states of a pool share moves
_RANK = functools.cmp_to_key(lambda a, b: -1 if _better(a, b) else 1)


def beam_parse(model, words, cfg=None):
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
    stacks = _Stacks()
    pair, apply = stacks.pair, stacks.apply
    observed = model.observed_pairs if cfg.require_observed_pairs else None

    frontier = {0: (0.0, None, None, 0)}
    best_complete = None
    truncated = []   # (word position, states dropped) past max_states
    for k, lookahead in enumerate(sentence):
        # close the class under reduce moves
        pool = dict(frontier)
        best_logp = max(s[0] for s in pool.values())
        worklist = deque(sorted(pool.values(), key=_RANK))
        while worklist:
            state = worklist.popleft()
            logp, _, _, sid = state
            if pool[sid] is not state:
                continue  # superseded
            reduces, _ = model.move_view(*pair[sid], lookahead)
            for move, lp in reduces:
                new_logp = logp + lp
                if new_logp < best_logp + log_thr:
                    continue
                new_sid = apply(sid, move)
                if observed is not None and pair[new_sid] not in observed:
                    continue
                new = (new_logp, state, move, new_sid)
                cur = pool.get(new_sid)
                if cur is None or _better(new, cur):
                    pool[new_sid] = new
                    worklist.append(new)
                    best_logp = max(best_logp, new_logp)
        states = [s for s in pool.values() if s[0] >= best_logp + log_thr]
        if len(states) > cfg.max_states:
            truncated.append((k, len(states) - cfg.max_states))
            states = sorted(states, key=_RANK)[:cfg.max_states]
        # shift the look-ahead (or accept with the final STAR shift)
        move = shift(lookahead)
        frontier = {}
        for state in states:
            sid = state[3]
            lp = model.move_view(*pair[sid], lookahead)[1].get(lookahead)
            if lp is None:
                continue
            new_sid = apply(sid, move)
            new = (state[0] + lp, state, move, new_sid)
            if lookahead == STAR:
                if best_complete is None or _better(new, best_complete):
                    best_complete = new
            elif observed is None or pair[new_sid] in observed:
                cur = frontier.get(new_sid)
                if cur is None or _better(new, cur):
                    frontier[new_sid] = new
        if not frontier and lookahead != STAR:
            break
    if truncated:
        log.warning("beam_parse dropped states past max_states=%d: %s",
                    cfg.max_states, ", ".join("%d at word position %d" % (n, k)
                                              for k, n in truncated))
    return (None if best_complete is None
            else tree_from_moves(_moves(best_complete)))


def parse_corpus(model, sentences, cfg=None):
    """Beam-parse each sentence and debinarize; returns (trees, failures)
    where a failed sentence contributes None."""
    cfg = cfg or BeamConfig()
    out = [beam_parse(model, words, cfg) for words in sentences]
    return ([None if t is None else debinarize(t) for t in out],
            sum(t is None for t in out))


# ---------------------------------------------------------------------------
# Persistence.  A joint model's file has empty [full] and [lambdas].

def _read_move(text):
    kind, label = text.split(" ", 1)
    if kind not in ARITY:
        raise ValueError("unknown move kind %r" % kind)
    return Move(kind, label)


SR_SCHEMA = {
    "meta": {"flavor": modelfile.one_of("joint", "conditional"), "start": str},
    "joint": (str, _read_move, modelfile.number),  # s1 s2, move, count
    "full": (str, _read_move, modelfile.number),   # s1 s2 w, move, count
    "lambdas": (int, modelfile.number, modelfile.number),  # bucket, weights
}


def save_sr(model, path):
    full, lambdas = CondTable(), {}
    if model.cond_mixture is not None:
        (_joint, _), (full, _) = model.cond_mixture.components
        lambdas = model.cond_mixture.lambdas
    modelfile.write(path, [
        ("meta", [("flavor", model.flavor), ("start", model.start)]),
        ("joint", modelfile.table_rows(model.joint_table, " ".join)),
        ("full", modelfile.table_rows(full, " ".join)),
        ("lambdas", [(b,) + lambdas[b] for b in sorted(lambdas)])])


def load_sr(path):
    f = modelfile.read(path, SR_SCHEMA, ParserError)
    joint = modelfile.fill_table(f["joint"])
    mixture = None
    if f["meta"]["flavor"] == "conditional":
        full = modelfile.fill_table(f["full"])
        mixture = InterpolatedCondDist(_cond_components(joint, full), {
            b: tuple(ls) for b, *ls in f["lambdas"]})
    return MoveModel(f["meta"]["start"], joint, mixture)
