import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from condest import toydata
from condest.hmm import collect_tables, fit_deleted_interpolation
from condest.interp import (InterpolatedCondDist, _count_pairs, bucket_id,
                            count_tables, fit_interpolation,
                            fit_mixture_weights)
from condest.shiftreduce import estimate_conditional, oracle_moves
from condest.trees import Corpus, binarize, tree_yield
from oracles import (DictCondTable, coded_table, collect_tables_loop,
                     fit_mixture_weights_loop, fit_tagger_mixture_loop,
                     replay_reference)


def test_bucket_id():
    assert bucket_id(0) == 0
    assert bucket_id(1) == 1
    assert bucket_id(2) == 1
    assert bucket_id(3) == 2
    assert bucket_id(7) == 3
    assert bucket_id(2 ** 20) == 16  # capped


def test_cond_table():
    t = coded_table([], 1)
    t.add(("c",), "x")
    t.add(("c",), "x")
    t.add(("c",), "y")
    assert t.prob(("c",), "x") == pytest.approx(2 / 3)
    assert t.prob(("c",), "z") == 0.0
    assert t.prob(("missing",), "x") == 0.0
    assert t.total(("c",)) == 3.0
    assert t.dist(("c",)) == {"x": pytest.approx(2 / 3), "y": pytest.approx(1 / 3)}
    assert t.dist(("missing",)) == {}
    assert sorted(t.items()) == [(("c",), "x", 2.0), (("c",), "y", 1.0)]
    with pytest.raises(ValueError, match="2 fields, expected 1"):
        t.add(("c", "d"), "x")


# Contexts of one table share their length: one symbol of three, or two of
# two each.
CONTEXTS = {1: st.tuples(st.sampled_from("abc")),
            2: st.tuples(st.sampled_from("ab"), st.sampled_from("ab"))}
PAIRS = st.sampled_from((1, 2)).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.tuples(CONTEXTS[width],
                                       st.sampled_from("xyz")))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=PAIRS)
def test_cond_table_from_pairs_equals_add_loop(case):
    width, pairs = case
    got = coded_table(iter(pairs), width)
    want = coded_table([], width)
    for ctx, out in pairs:
        want.add(ctx, out)
    assert list(got.items()) == list(want.items())
    assert [(c, got.total(c)) for c in got.contexts()] == \
        [(c, want.total(c)) for c in want.contexts()]
    for ctx in want.contexts():
        assert list(got.dist(ctx).items()) == list(want.dist(ctx).items())


def _same_table(got, want):
    """Every read of ``got`` equals that of the reference ``want``, bit for
    bit: contexts, each context's outcomes and counts (items), totals,
    dist, prob and probs, and matrix, in order."""
    ctxs = list(want.contexts())
    assert list(got.contexts()) == ctxs
    assert list(got.items()) == list(want.items())
    # an unseen symbol, and each context cut short: a context of another
    # length is unseen, never a row whose code its symbols would make
    asked = ctxs + [("missing",)] + [c[:-1] for c in ctxs if len(c) > 1]
    pairs = [(c, o) for c in asked for o in "xyzw"]
    for ctx in asked:
        assert got.total(ctx) == want.total(ctx)
        assert list(got.dist(ctx).items()) == list(want.dist(ctx).items())
    assert [got.prob(c, o) for c, o in pairs] == \
        [want.prob(c, o) for c, o in pairs]
    outs = {o: i for i, o in enumerate(got._outs)}
    assert got.probs(got.code_rows(np.array([got.coder.encode(c)
                                             for c, _o in pairs])),
                     [outs.get(o, -1) for _c, o in pairs]
                     ).tolist() == [want.prob(c, o) for c, o in pairs]
    index = {"z": 0, "x": 1}   # y left out
    assert got.matrix(asked, index).tobytes() == \
        want.matrix(asked, index).tobytes()


WEIGHT = st.one_of(st.just(1.0), st.sampled_from((0.1, 0.2, 0.3, 0.0)),
                   st.floats(-2.0, 5.0))


def _rows(width):
    return st.lists(st.tuples(CONTEXTS[width], st.sampled_from("xyz"),
                              WEIGHT))


ROWS = st.sampled_from((1, 2)).flatmap(
    lambda width: st.tuples(st.just(width), _rows(width), _rows(width)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=ROWS, weighted=st.booleans())
# a total added in input order, (0.1 + 0.2) + 0.6, differs in the last bit
# from the sum of the counts, 0.7 + 0.2; the add must go on from the former
@example(case=(1, [(("a",), "x", 0.1), (("a",), "y", 0.2), (("a",), "x", 0.6)],
               [(("a",), "z", 1.0)]), weighted=True)
def test_coded_table_matches_dict_table(case, weighted):
    """Counted pairs or weighted rows, then ``add`` calls after a query
    (as criterion 6 makes): the coded table reads as the dict table does."""
    width, rows, later = case
    pairs = [(ctx, out) for ctx, out, _k in rows]
    got = coded_table(pairs, width,
                      [k for _c, _o, k in rows] if weighted else None)
    want = DictCondTable()
    for ctx, out, k in rows:
        want.add(ctx, out, k if weighted else 1.0)
    _same_table(got, want)
    for ctx, out, k in later:
        got.add(ctx, out, k)
        want.add(ctx, out, k)
    _same_table(got, want)


def test_wide_codes_count_alike():
    """Row codes too wide to share an int64 with a position are sorted the
    other way; the counts, totals and orders come out the same."""
    rng = np.random.default_rng(0)
    rows, cols = rng.integers(0, 6, 50), rng.integers(0, 4, 50)
    weights = rng.random(50)
    narrow = _count_pairs(rows, cols, weights)
    wide = _count_pairs(rows * 2 ** 57, cols, weights)   # 50 needs 6 bits
    assert wide[0].tolist() == (narrow[0] * 2 ** 57).tolist()
    assert [a.tobytes() for a in wide[1:]] == \
        [a.tobytes() for a in narrow[1:]]
    # row codes up to 5 * 2 ** 60, whose pair codes would overflow an int64
    widest = _count_pairs(rows * 2 ** 60, cols, weights)
    assert widest[0].tolist() == [r * 2 ** 60 for r in narrow[0].tolist()]
    assert [a.tobytes() for a in widest[1:]] == \
        [a.tobytes() for a in narrow[1:]]


def fit_events(events, k, **kw):
    """``fit_mixture_weights`` on a list of (bucket, (p_1, ..., p_k))
    events, passed as its bucket and probability arrays."""
    return fit_mixture_weights(
        np.array([b for b, _p in events], dtype=np.intp),
        np.array([p for _b, p in events], dtype=float).reshape(-1, k), **kw)


def test_mixture_degenerate():
    # second component always wrong: all weight moves to the first
    events = [(0, (1.0, 0.0))] * 5
    lambdas, trace = fit_events(events, 2)
    assert lambdas[0] == pytest.approx((1.0, 0.0))
    assert trace[-1] == pytest.approx(0.0)


def test_mixture_symmetric_stays_uniform():
    events = [(0, (0.3, 0.3))] * 5
    lambdas, _ = fit_events(events, 2)
    assert lambdas[0] == pytest.approx((0.5, 0.5))


def test_mixture_simplex_and_monotone():
    events = [(0, (0.9, 0.2)), (0, (0.1, 0.8)), (1, (0.5, 0.4)),
              (1, (0.2, 0.7)), (1, (0.6, 0.6))]
    lambdas, trace = fit_events(events, 2)
    for lam in lambdas.values():
        assert sum(lam) == pytest.approx(1.0, abs=1e-12)
        assert all(l >= 0 for l in lam)
    for a, b in zip(trace, trace[1:]):
        assert b >= a - 1e-9


def test_mixture_skips_all_zero_events():
    events = [(0, (0.0, 0.0)), (0, (1.0, 0.5))]
    lambdas, trace = fit_events(events, 2)
    assert 0 in lambdas
    assert len(trace) >= 1


def test_interpolated_dist():
    coarse = coded_table([], 1)
    fine = coded_table([], 2)
    coarse.add(("c",), "x", 3.0)
    coarse.add(("c",), "y", 1.0)
    fine.add(("c", "d"), "x", 1.0)
    fine.add(("c", "d"), "y", 1.0)
    mix = InterpolatedCondDist([(coarse, (0,)), (fine, (0, 1))],
                               {bucket_id(2.0): (0.25, 0.75)})
    ctx = ("c", "d")
    assert mix.bucket(ctx) == bucket_id(2.0)
    assert [table.prob(mix.project(ctx, i), "x") for i, (table, _)
            in enumerate(mix.components)] == pytest.approx([0.75, 0.5])
    assert mix.prob(ctx, "x") == pytest.approx(0.25 * 0.75 + 0.75 * 0.5)
    d = mix.dist(ctx)
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)
    assert d["x"] == pytest.approx(mix.prob(ctx, "x"))
    # unseen bucket falls back to uniform weights
    assert mix.weights(("q", "r")) == (0.5, 0.5)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(st.tuples(*[st.sampled_from("ab")] * 3),
                               st.sampled_from("xyz"),
                               WEIGHT.filter(lambda k: k > 0.0)),
                     min_size=1),
       k=st.sampled_from((2, 3)), lam=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_mixture_prob_is_its_dist(rows, k, lam):
    """A mixture's ``prob`` is its ``dist`` entry, bit for bit: the
    components' weighted probabilities added left to right, as a loop adds
    them on any Python version.  Buckets above 2 take uniform weights."""
    places = [(0,), (0, 1), (0, 1, 2)][-k:]
    mix = InterpolatedCondDist(
        [(coded_table([(tuple(c[j] for j in idx), o) for c, o, _w in rows],
                      len(idx), [w for _c, _o, w in rows]), idx)
         for idx in places],
        {b: lam[:k] for b in (0, 1, 2)})
    for ctx in [c for c, _o, _w in rows] + [("a", "b", "q")]:
        for out in "xyzw":
            want = 0.0
            for i, w in enumerate(mix.weights(ctx)):
                want += w * mix.components[i][0].prob(mix.project(ctx, i), out)
            assert mix.prob(ctx, out) == mix.dist(ctx).get(out, 0.0) == want


def test_fit_interpolation():
    """Components sharing each field's dict, fitted on heldout events
    coded by those dicts (-1 for a symbol training never saw): the fit is
    the plain loop's over dict tables, bit for bit."""
    train = [("c", "d", "x")] * 4 + [("c", "e", "y")]
    held = [("c", "d", "x"), ("c", "e", "y"), ("c", "q", "x"),
            ("c", "e", "z")]
    ids = [{}, {}, {}]    # first symbol, second symbol, outcome
    columns = [np.array([d.setdefault(s, len(d)) for s in col])
               for d, col in zip(ids, zip(*train))]
    decl = {"coarse": ((0,), 2), "fine": ((0, 1), 2)}
    tables = count_tables(decl, ids, dict.fromkeys(decl, (columns, None)))
    coded = [np.array([d.get(s, -1) for s in col])
             for d, col in zip(ids, zip(*held))]
    mix = fit_interpolation([(tables["coarse"], (0,)),
                             (tables["fine"], (0, 1))], coded[:2], coded[2])
    for lam in mix.lambdas.values():
        assert sum(lam) == pytest.approx(1.0, abs=1e-12)
    for a, b in zip(mix.trace, mix.trace[1:]):
        assert b >= a - 1e-9

    coarse, fine = DictCondTable(), DictCondTable()
    for a, b, out in train:
        coarse.add((a,), out)
        fine.add((a, b), out)
    lambdas, trace = fit_mixture_weights_loop(
        [(bucket_id(fine.total((a, b))),
          (coarse.prob((a,), out), fine.prob((a, b), out)))
         for a, b, out in held], 2)
    assert (list(mix.lambdas.items()), mix.trace) == \
        (list(lambdas.items()), trace)


def _fit(fit, events, k, max_iters, tol):
    """The fit's (lambdas in order, trace), or the error it raised."""
    try:
        lambdas, trace = fit(events, k, max_iters=max_iters, tol=tol)
    except ValueError as e:  # log of a zero mixture
        return type(e), str(e)
    return list(lambdas.items()), trace


@st.composite
def _em_inputs(draw):
    k = draw(st.sampled_from((2, 3)))
    n_buckets = draw(st.sampled_from((1, 2, 7)))
    prob = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    row = st.tuples(st.integers(0, n_buckets - 1), st.tuples(*[prob] * k))
    min_size = draw(st.sampled_from((0, 10)))
    if min_size:
        # events drawn from a small pool of rows, so most of them repeat;
        # a subnormal probability can underflow its mixture to zero
        tiny = st.sampled_from((5e-324, 1e-320, 0.5))
        row = st.sampled_from(draw(st.lists(
            st.tuples(st.integers(0, n_buckets - 1),
                      st.tuples(*[st.one_of(prob, tiny)] * k)),
            min_size=1, max_size=4)))
    events = draw(st.lists(row, min_size=min_size, max_size=40))
    max_iters, tol = draw(st.sampled_from(((1, 1e-7), (3, 0.0), (100, 1e-7),
                                           (100, 1e-12))))
    return events, k, max_iters, tol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_em_inputs())
def test_mixture_weights_match_loop(inputs):
    # bit-identical lambdas (in bucket order) and trace, or the same error
    assert _fit(fit_events, *inputs) == _fit(fit_mixture_weights_loop,
                                                      *inputs)


@pytest.mark.parametrize("events,k,max_iters,tol,iters", [
    ([(0, (0.0, 0.0))] * 3, 2, 100, 1e-7, 2),              # all zero
    ([(5, (0.9, 0.2, 0.1)), (5, (0.1, 0.8, 0.3))], 3, 100, 1e-7, None),
    ([(b % 4, (0.1 * b, 0.3, 0.05 * b)) for b in range(1, 30)], 3, 4, 0.0, 4),
    ([(b % 6, (0.2, 0.01 * b)) for b in range(60)], 2, 100, 1e-7, None),
])
def test_mixture_weights_match_loop_cases(events, k, max_iters, tol, iters):
    got = _fit(fit_events, events, k, max_iters, tol)
    assert got == _fit(fit_mixture_weights_loop, events, k, max_iters, tol)
    if iters is None:  # stopped by the tolerance
        assert 2 <= len(got[1]) < max_iters
    else:
        assert len(got[1]) == iters


def _last_gain(trace):
    """The last iteration's gain, relative as the stopping rule takes it."""
    return (trace[-1] - trace[-2]) / (abs(trace[-2]) + 1.0)


def test_bundled_fits_stop_where_they_do_today():
    """Where the EM stops on the bundled corpora: both tagger mixtures run
    into the 100-iteration cap with their last gain far above the default
    ``tol`` of 1e-7, and the shift-reduce mixture stops by that tolerance
    at 93.  Each fit is the plain-loop reference's, bit for bit."""
    train, heldout, _test = toydata.hmm_corpora()
    tables = collect_tables(train)
    word_counts, ref = collect_tables_loop(train)
    for target, gain in (("pr0", 7.34e-6), ("pr1", 3.38e-6)):
        mix = fit_deleted_interpolation(tables, heldout, target)
        assert len(mix.trace) == 100
        assert _last_gain(mix.trace) == pytest.approx(gain, rel=1e-2)
        lambdas, trace = fit_tagger_mixture_loop(word_counts, ref, heldout,
                                                 target)
        assert (list(mix.lambdas.items()), mix.trace) == \
            (list(lambdas.items()), trace)

    train, heldout, _test = toydata.sr_corpora()
    train = Corpus([binarize(x) for x in train])
    heldout = Corpus([binarize(x) for x in heldout])
    mix = estimate_conditional(train, heldout).cond_mixture
    assert len(mix.trace) == 93
    assert _last_gain(mix.trace) < 1e-7

    def events(trees):
        return [e for tree in trees
                for e in replay_reference(oracle_moves(tree), tree_yield(tree))]

    coarse, full = DictCondTable(), DictCondTable()
    for s1, s2, la, move in events(train):
        coarse.add((s1, s2), move)
        full.add((s1, s2, la), move)
    lambdas, trace = fit_mixture_weights_loop(
        [(bucket_id(full.total((s1, s2, la))),
          (coarse.prob((s1, s2), move), full.prob((s1, s2, la), move)))
         for s1, s2, la, move in events(heldout)], 2)
    assert (list(mix.lambdas.items()), mix.trace) == \
        (list(lambdas.items()), trace)
