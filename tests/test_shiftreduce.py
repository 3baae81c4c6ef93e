import logging
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from condest import toydata
from condest.shiftreduce import (REDUCE1, REDUCE2, SHIFT, STAR, BeamConfig,
                                 Move, ParserError, _Stacks, beam_parse,
                                 estimate_conditional, estimate_joint,
                                 load_sr, oracle_events, oracle_moves,
                                 parse_corpus, parse_log_prob, reduce1,
                                 reduce2, replay, save_sr, shift,
                                 tree_from_moves)
from condest.trees import Corpus, binarize, parse_trees, tree_yield
from oracles import (apply_move, beam_parse_reference, brute_sr_best,
                     enumerate_sr_parses, random_binary_tree,
                     random_nary_tree, replay_reference, stack_top2)


def t(s):
    return parse_trees(s)[0]


def test_stack_top2():
    assert stack_top2(()) == (STAR, STAR)
    assert stack_top2(("A",)) == ("A", STAR)
    assert stack_top2(("A", "B")) == ("B", "A")


def test_apply_move():
    assert apply_move((), shift("a")) == ("a",)
    assert apply_move(("a",), reduce1("A")) == ("A",)
    assert apply_move(("A", "b"), reduce1("B")) == ("A", "B")
    assert apply_move(("A", "B"), reduce2("S")) == ("S",)
    with pytest.raises(ParserError):
        apply_move((), reduce1("A"))
    with pytest.raises(ParserError):
        apply_move(("A",), reduce2("S"))
    with pytest.raises(ParserError):
        apply_move((), Move("swap", "x"))


def test_oracle_moves():
    moves = oracle_moves(t("(S (A a) (B b))"))
    assert moves == [shift("a"), reduce1("A"), shift("b"), reduce1("B"),
                     reduce2("S"), shift(STAR)]


def test_oracle_moves_needs_binarized():
    with pytest.raises(ParserError, match="binarize"):
        oracle_moves(t("(S a b c)"))


def test_tree_from_moves_round_trip():
    tree = t("(S (A a) (B b))")
    assert tree_from_moves(oracle_moves(tree)) == tree
    with pytest.raises(ParserError, match="complete"):
        tree_from_moves([shift("a")])
    with pytest.raises(ParserError):
        tree_from_moves([reduce1("A")])


def test_oracle_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        leaves = [rng.choice("ab") for _ in range(n)]
        tree = random_binary_tree(rng, leaves)
        moves = oracle_moves(tree)
        assert tree_from_moves(moves) == tree
        assert [m.label for m in moves if m.kind == "shift"] == \
            leaves + [STAR]


@pytest.fixture
def single_tree_model():
    return estimate_joint(Corpus([t("(S (A a) (B b))")]))


def test_estimate_joint_counts(single_tree_model):
    m = single_tree_model
    assert m.start == "S"
    assert m.joint_table.prob((STAR, STAR), shift("a")) == 1.0
    assert m.joint_table.prob(("a", STAR), reduce1("A")) == 1.0
    assert m.joint_table.prob(("B", "A"), reduce2("S")) == 1.0
    assert m.joint_table.prob(("S", STAR), shift(STAR)) == 1.0
    assert ("a", STAR) in m.observed_pairs


def test_estimate_joint_empty():
    with pytest.raises(ParserError, match="empty"):
        estimate_joint(Corpus([]))


def test_structural_zeros_masking(single_tree_model):
    m = single_tree_model
    # reduce moves are inapplicable on too-short stacks
    assert not m.allowed(reduce1("A"), STAR, STAR)
    assert not m.allowed(reduce2("S"), "A", STAR)
    assert m.allowed(reduce2("S"), "B", "A")
    # the accept shift fires only on the bare [start] stack
    assert m.allowed(shift(STAR), "S", STAR)
    assert not m.allowed(shift(STAR), "S", "A")
    assert not m.allowed(shift(STAR), "A", STAR)


def test_move_probs_renormalize_after_masking():
    # plant a structurally-impossible move in the counts; the distribution
    # must drop it and renormalize the remainder
    model = estimate_joint(Corpus([t("(S (A a) (B b))")]))
    model.joint_table.add((STAR, STAR), reduce1("X"), 3.0)
    probs = model.move_probs(STAR, STAR)
    assert reduce1("X") not in probs
    assert probs[shift("a")] == pytest.approx(1.0)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_conditional_lookahead_masking():
    train = Corpus([t("(S (A a) (B b))"), t("(S (A a) (A a))")])
    model = estimate_conditional(train, train)
    probs = model.move_probs(STAR, STAR, lookahead="a")
    assert set(probs) == {shift("a")}
    probs = model.move_probs("A", STAR, lookahead="b")
    assert shift("a") not in probs
    with pytest.raises(ParserError, match="look-ahead"):
        model.move_probs(STAR, STAR)


def test_estimate_conditional_validation():
    train = Corpus([t("(S (A a) (B b))")])
    with pytest.raises(ParserError, match="empty"):
        estimate_conditional(train, Corpus([]))


def test_parse_log_prob_degenerate(single_tree_model):
    moves = oracle_moves(t("(S (A a) (B b))"))
    lp = parse_log_prob(single_tree_model, moves, ["a", "b"])
    assert lp == pytest.approx(0.0)
    with pytest.raises(ParserError, match="shift"):
        parse_log_prob(single_tree_model, moves, ["b", "a"])
    with pytest.raises(ParserError, match="consume"):
        parse_log_prob(single_tree_model, moves[:-1], ["a", "b"])


def test_joint_model_is_tight_on_tiny_treebank():
    # total probability over all complete parses of all strings <= 1
    train = Corpus([t("(S (A a) (B b))"), t("(S (A a) (A a))"),
                    t("(S (S (A a) (A a)) (B b))")])
    model = estimate_joint(train)
    total = 0.0
    for n in range(1, 6):
        for bits in range(2 ** n):
            words = [("a", "b")[(bits >> i) & 1] for i in range(n)]
            for _moves, lp in enumerate_sr_parses(model, words):
                total += math.exp(lp)
    assert total <= 1.0 + 1e-9


def test_beam_reproduces_degenerate_tree(single_tree_model):
    assert beam_parse(single_tree_model, ["a", "b"]) == t("(S (A a) (B b))")
    assert beam_parse(single_tree_model, ["b", "a"]) is None


def test_beam_matches_brute_force():
    cfg = BeamConfig(threshold=1e-12, require_observed_pairs=False)
    rng = random.Random(11)
    for _ in range(25):
        trees = []
        for _i in range(5):
            n = rng.randint(1, 3)
            leaves = [rng.choice("ab") for _ in range(n)]
            trees.append(random_binary_tree(rng, leaves))
        model = estimate_joint(Corpus(trees))
        words = [rng.choice("ab") for _ in range(rng.randint(1, 3))]
        want = brute_sr_best(model, words)
        got = beam_parse(model, words, cfg)
        if want is None:
            assert got is None
            continue
        assert got == tree_from_moves(list(want[0]))
        assert parse_log_prob(model, list(want[0]), words) == \
            pytest.approx(want[1])


def test_beam_logs_max_states_truncation(caplog):
    model = estimate_joint(Corpus([t("(S b (X b b))"), t("(S b)"),
                                   t("(S b a)")]))
    with caplog.at_level(logging.WARNING, logger="condest.shiftreduce"):
        assert beam_parse(model, ["b", "a"]) is not None
        assert not caplog.records
        assert beam_parse(model, ["b", "a"], BeamConfig(max_states=1)) is None
    # one warning per call, however many word positions were truncated
    assert [r.getMessage() for r in caplog.records] == [
        "beam_parse dropped states past max_states=1: 1 at word position 1, "
        "1 at word position 2"]


class _ScoreTable:
    """A stand-in model for beam_parse: fixed move log-scores per (s1, s2),
    whatever the look-ahead; it refuses to answer more than ``limit``
    queries, so a beam that cycles fails instead of hanging."""

    def __init__(self, scores, limit=100):
        self.scores = scores
        self.observed_pairs = frozenset(scores)
        self.limit = limit

    def move_view(self, s1, s2, _lookahead=None):
        self.limit -= 1
        assert self.limit >= 0, "beam keeps expanding"
        moves = self.scores.get((s1, s2), {})
        return (tuple(sorted((m, lp) for m, lp in moves.items()
                             if m.kind != SHIFT)),
                {m.label: lp for m, lp in moves.items() if m.kind == SHIFT})


def test_beam_keeps_the_prefix_on_a_unary_tie():
    # reduce1 X over X scores log 1 == 0.0: (shift a, reduce1 X) and
    # (shift a, reduce1 X, reduce1 X) reach the stack (X,) with equal
    # scores, and the beam keeps the lexicographically smaller prefix
    # (keeping the longer one would expand X forever)
    half = math.log(0.5)
    model = _ScoreTable({
        (STAR, STAR): {shift("a"): 0.0},
        ("a", STAR): {reduce1("X"): half},
        ("X", STAR): {reduce1("X"): 0.0, reduce1("S"): half},
        ("S", STAR): {shift(STAR): 0.0}})
    assert beam_parse(model, ["a"]) == t("(S (X a))")


def test_max_states_cut_breaks_score_ties_by_moves(caplog):
    # P(reduce1 X | a, *) = 1, so at word position 1 the states (a,) and
    # (X,) tie on log p == 0.0; the cut to one state keeps (a,), whose
    # moves (shift a) are a prefix of (shift a, reduce1 X), and (a,) cannot
    # shift b; keeping (X,) instead would complete the parse
    model = estimate_joint(Corpus([t("(S (X a) b)")]))
    assert model.move_probs("a", STAR) == {reduce1("X"): 1.0}
    assert beam_parse(model, ["a", "b"]) == t("(S (X a) b)")
    with caplog.at_level(logging.WARNING, logger="condest.shiftreduce"):
        assert beam_parse(model, ["a", "b"], BeamConfig(max_states=1)) is None
    assert [r.getMessage() for r in caplog.records] == [
        "beam_parse dropped states past max_states=1: 1 at word position 1"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_beam_matches_tuple_state_reference(seed, caplog):
    # random small binarized treebanks, unary chains included, with some
    # trees repeated so that rare moves fall below the thresholds; the
    # parses and the max_states warnings must equal the tuple-state beam's
    rng = random.Random(seed)

    def treebank(n):
        trees = [binarize(random_nary_tree(rng, max_children=3, max_depth=3,
                                           terminals="ab")) for _ in range(n)]
        return Corpus([x for x in trees for _ in range(rng.choice((1, 30)))])

    train, heldout = treebank(rng.randint(1, 5)), treebank(rng.randint(1, 3))
    sentences = [tree_yield(x) for x in list(train)[:2] + list(heldout)[:1]]
    sentences.append([rng.choice("ab") for _ in range(rng.randint(1, 4))])
    cfgs = [BeamConfig(threshold=thr, require_observed_pairs=obs, **cut)
            for thr in (1e-3, 1e-6, 1e-12) for obs in (True, False)
            for cut in ({"max_states": 1}, {"max_states": 2}, {})]
    for model in (estimate_joint(train), estimate_conditional(train, heldout)):
        for cfg in cfgs:
            for words in sentences:
                caplog.clear()
                with caplog.at_level(logging.WARNING):
                    got = beam_parse(model, words, cfg)
                    want = beam_parse_reference(model, words, cfg)
                assert got == want
                messages = {r.name: r.getMessage() for r in caplog.records}
                assert len(caplog.records) == len(messages)
                assert (messages.get("condest.shiftreduce")
                        == messages.get("oracles"))


MOVES = st.builds(Move, st.sampled_from((SHIFT, REDUCE1, REDUCE2)),
                  st.sampled_from("abXY"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(moves=st.lists(MOVES, max_size=40))
def test_stack_table_matches_tuple_stacks(moves):
    stacks = _Stacks()
    ids = {(): 0}   # tuple stack -> its id
    stack, sid = (), 0
    for move in moves:
        try:
            want = apply_move(stack, move)
        except ParserError:
            with pytest.raises(ParserError, match="too short"):
                stacks.apply(sid, move)
            continue
        stack, sid = want, stacks.apply(sid, move)
        assert stacks.pair[sid] == stack_top2(stack)
        assert ids.setdefault(stack, sid) == sid
    # one id per distinct stack, however it was reached
    assert len(set(ids.values())) == len(ids)
    with pytest.raises(ParserError, match="unknown"):
        stacks.apply(0, Move("swap", "x"))


def _replayed(replay_fn, moves, words):
    """The events a replay yields, then the error it raises (or None)."""
    events = []
    try:
        for event in replay_fn(moves, words):
            events.append(event)
    except ParserError as e:
        return events, str(e)
    return events, None


ANY_MOVES = st.lists(st.builds(Move, st.sampled_from((SHIFT, REDUCE1, REDUCE2,
                                                      "swap")),
                               st.sampled_from(("a", "b", "X", STAR))),
                     max_size=8)


@st.composite
def _move_sequences(draw):
    """(moves, words): a random sequence, or an oracle parse of ``words``
    cut short and followed by random moves (moves past the end included)."""
    words = draw(st.lists(st.sampled_from("ab"), max_size=5))
    if not words or draw(st.booleans()):
        return draw(ANY_MOVES), words
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    moves = oracle_moves(random_binary_tree(rng, words))
    cut = len(moves) if draw(st.booleans()) else \
        draw(st.integers(0, len(moves)))
    return moves[:cut] + draw(ANY_MOVES), words


PARSE = oracle_moves(t("(S (A a) (B b))"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_move_sequences())
@example(case=(PARSE, ["a", "b"]))                          # a valid parse
@example(case=([shift("a"), reduce2("S")], ["a"]))          # stack too short
@example(case=([Move("swap", "a")], ["a"]))                 # unknown kind
@example(case=([shift("b")], ["a"]))                        # mismatched shift
@example(case=(PARSE[:-1], ["a", "b"]))                     # input left over
@example(case=(PARSE + [reduce1("X"), shift("a")], ["a", "b"]))  # past end
def test_replay_matches_tuple_stack_reference(case):
    """The list-stack replay yields the tuple-stack replay's events and
    raises its error, with the same message, at the same point."""
    moves, words = case
    assert _replayed(replay, moves, words) == \
        _replayed(replay_reference, moves, words)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4))
def test_oracle_events_match_reference(seed, n):
    rng = random.Random(seed)
    trees = [binarize(random_nary_tree(rng)) for _ in range(n)]
    want = [e for tree in trees
            for e in replay_reference(oracle_moves(tree), tree_yield(tree))]
    assert list(oracle_events(trees)) == want


def _fresh_move_probs(model, s1, s2, la):
    """The masked, renormalised table distribution, derived from scratch."""
    if model.flavor == "joint":
        dist = model.joint_table.dist((s1, s2))
    else:
        dist = model.cond_mixture.dist((s1, s2, la))
    masked = {m: p for m, p in dist.items()
              if p > 0.0 and model.allowed(m, s1, s2, la)}
    total = 0.0   # left to right, as builtin sum did before Python 3.12
    for p in masked.values():
        total += p
    return {m: p / total for m, p in masked.items()} if total > 0.0 else {}


def test_move_view_matches_fresh_tables():
    train, heldout, test = toydata.sr_corpora()
    btrain = Corpus([binarize(x) for x in train])
    for model in (estimate_joint(btrain),
                  estimate_conditional(btrain,
                                       Corpus([binarize(x) for x in heldout]))):
        seen = []
        view = model.move_view
        model.move_view = lambda *ctx: seen.append(ctx) or view(*ctx)
        for thr in (1e-6, 1e-9):
            for x in list(test) + list(heldout):
                beam_parse(model, tree_yield(x), BeamConfig(threshold=thr))
        contexts = set(seen) | {(s1, s2, "never-seen")
                                for s1, s2 in model.observed_pairs}
        assert len(set(seen)) > 50
        for s1, s2, la in contexts:
            reduces, shifts = view(s1, s2, la)
            want = _fresh_move_probs(model, s1, s2, la)
            assert reduces == tuple((m, math.log(want[m])) for m in
                                    sorted(want) if m.kind != SHIFT)
            assert shifts == {m.label: math.log(p) for m, p in want.items()
                              if m.kind == SHIFT}
    # the reduce list is in sorted order, not in the table's order
    model = estimate_joint(Corpus([t("(S (A a) (B b))")]))
    for mv in (reduce2("Z"), reduce1("Y"), reduce1("A")):
        model.joint_table.add(("B", "A"), mv)
    assert model.move_view("B", "A") == (
        tuple((m, math.log(0.25)) for m in (reduce1("A"), reduce1("Y"),
                                            reduce2("S"), reduce2("Z"))), {})


def test_move_probs_renormalise_left_to_right():
    """The masked probabilities are added left to right in table order, so
    the renormalised values do not depend on how the interpreter's builtin
    ``sum`` rounds (compensated from Python 3.12): here that total is
    0.9999999999999997, where a correctly rounded sum gives ...98."""
    model = estimate_joint(Corpus([t("(S (A a) (B b))")]))
    for label in "XYZ":
        model.joint_table.add(("B", "A"), reduce1(label), 0.1)
    dist = model.joint_table.dist(("B", "A"))
    total = 0.0
    for m in (reduce2("S"), reduce1("X"), reduce1("Y"), reduce1("Z")):
        total += dist[m]
    assert total == 0.9999999999999997 != math.fsum(dist.values())
    assert model.move_probs("B", "A") == {m: p / total
                                          for m, p in dist.items()}


def test_beam_config_validation():
    with pytest.raises(ValueError):
        BeamConfig(threshold=0.0)
    with pytest.raises(ValueError):
        BeamConfig(threshold=2.0)


def test_parse_corpus(single_tree_model):
    pred, failures = parse_corpus(single_tree_model,
                                  [["a", "b"], ["b", "a"]])
    assert failures == 1
    assert pred[0] == t("(S (A a) (B b))")
    assert pred[1] is None
    with pytest.raises(ParserError, match="empty"):
        beam_parse(single_tree_model, [])


def test_parse_corpus_debinarizes():
    tree = t("(S (A a) (B b) (B b))")
    from condest.trees import binarize
    model = estimate_joint(Corpus([binarize(tree)]))
    pred, failures = parse_corpus(model, [["a", "b", "b"]])
    assert failures == 0
    assert pred[0] == tree


def test_save_load_round_trip(tmp_path):
    train = Corpus([t("(S (A a) (B b))"), t("(S (A a) (A a))")])
    contexts = [(STAR, STAR), ("a", STAR), ("A", STAR), ("a", "A"),
                ("A", "A"), ("B", "A"), ("S", STAR)]
    for flavor in ("joint", "conditional"):
        if flavor == "joint":
            model = estimate_joint(train)
        else:
            model = estimate_conditional(train, train)
        path = tmp_path / ("sr_%s.txt" % flavor)
        save_sr(model, path)
        loaded = load_sr(path)
        assert loaded.flavor == model.flavor
        assert loaded.start == model.start
        assert loaded.observed_pairs == model.observed_pairs
        for s1, s2 in contexts:
            for la in ("a", "b", STAR):
                got = loaded.move_probs(s1, s2, lookahead=la)
                want = model.move_probs(s1, s2, lookahead=la)
                assert set(got) == set(want)
                for mv in want:
                    assert got[mv] == pytest.approx(want[mv])
