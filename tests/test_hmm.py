import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condest import interp, toydata
from condest.hmm import (END, MIXTURES, TABLES, UNK, VARIANT_FACTORS,
                         VARIANTS, TaggedCorpus, TaggerModel, TaggingError,
                         collect_tables, fit_deleted_interpolation,
                         load_tagger, read_tagged, save_tagger,
                         tagging_accuracy, write_tagged)
from oracles import (ReferenceTagger, bench_module, brute_tag_decode,
                     brute_tag_marginals, brute_tag_partition,
                     collect_tables_loop, fit_tagger_mixture_loop,
                     heldout_events_loop)


@pytest.fixture
def det_corpus():
    # every word seen twice, fully deterministic chain
    return TaggedCorpus([(("ka", "li"), ("X", "Y"))] * 2)


def test_read_write_round_trip():
    text = "ka_X li_Y\nmo_Z\n"
    corpus = read_tagged(text)
    assert corpus.sentences == [(("ka", "li"), ("X", "Y")), (("mo",), ("Z",))]
    assert write_tagged(corpus) == text


def test_read_tagged_word_with_underscore():
    corpus = read_tagged("a_b_X\n")
    assert corpus.sentences == [(("a_b",), ("X",))]


def test_read_tagged_malformed():
    with pytest.raises(TaggingError, match="line 1"):
        read_tagged("ka\n")


def test_corpus_validation():
    with pytest.raises(TaggingError):
        TaggedCorpus([(("a",), ("X", "Y"))])
    with pytest.raises(TaggingError, match="end-marker"):
        TaggedCorpus([((END,), ("X",))])


def test_collect_tables_counts(det_corpus):
    tb = collect_tables(det_corpus)
    assert tb.tagset == ("X", "Y")
    # both words occur twice, so neither maps to UNK
    assert tb.map_word("ka") == "ka"
    assert tb.map_word("unseen") == UNK
    assert tb.trans.prob((END,), "X") == 1.0
    assert tb.trans.prob(("X",), "Y") == 1.0
    assert tb.trans.prob(("Y",), END) == 1.0
    assert tb.emit.prob(("X",), "ka") == 1.0
    assert tb.emit_prev.prob((END,), "ka") == 1.0
    assert tb.emit_prev.prob(("X",), "li") == 1.0
    assert tb.tag_given_word.prob(("ka",), "X") == 1.0
    assert tb.full0.prob(("ka", END), "X") == 1.0
    assert tb.full1.prob((END, END), "X") == 1.0


def _rows(table):
    """A CondTable's contexts, each with its outcomes and counts, and its
    totals, all in insertion order."""
    return (list(table.items()),
            [(ctx, table.total(ctx)) for ctx in table.contexts()])


# Small vocabularies, so that words fall below the UNK threshold and
# contexts repeat; a word may be a literal UNK or spelled like a tag.
WORDS = ("a", "b", "c", "d", "e", UNK, "X", "Y")
TAGGED = st.lists(st.lists(st.tuples(st.sampled_from(WORDS),
                                     st.sampled_from("XYZ")),
                           min_size=1, max_size=5),
                  min_size=1, max_size=6).map(
    lambda sents: TaggedCorpus([tuple(map(tuple, zip(*s))) for s in sents]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(train=TAGGED, heldout=TAGGED)
def test_tables_and_events_match_add_loop(train, heldout):
    """Every table in its insertion order, and the pr0/pr1 heldout events,
    equal those of one add per table and position (tests/oracles.py); the
    heldout events as the fits take them, coded by the tables' word and
    tag ids, a tag training never saw as -1."""
    tb = collect_tables(train)
    word_counts, want = collect_tables_loop(train)
    assert list(tb.word_counts.items()) == list(word_counts.items())
    assert list(TABLES) == list(want)
    for name, table in want.items():
        assert _rows(getattr(tb, name)) == _rows(table)
    positions = [col.tolist() for col in tb.positions(heldout)]
    ids = (tb.words, tb.tags) * 2
    for target, names in MIXTURES.items():
        ctx, out = TABLES[names[-1]]
        events = list(zip(zip(*(positions[f] for f in ctx)), positions[out]))
        assert events == [
            (tuple(ids[f].get(s, -1) for f, s in zip(ctx, c)),
             tb.tags.get(t, -1))
            for c, t in heldout_events_loop(tb, heldout, target)]


def test_tables_match_add_loop_at_scale(tmp_path):
    """The benchmark's tagger-scale training corpus (bench/gen.py, seed
    44): about 40k positions and 2.5k words, codes far larger than any
    drawn above.  Every table in its insertion order, with its totals, and
    the word counts equal those of one add per table and position."""
    files, _sizes = bench_module("gen").gen_tagger(44, str(tmp_path))
    with open(files["train"], encoding="utf-8") as f:
        train = read_tagged(f.read())
    tb = collect_tables(train)
    word_counts, want = collect_tables_loop(train)
    assert list(tb.word_counts.items()) == list(word_counts.items())
    for name, table in want.items():
        assert _rows(getattr(tb, name)) == _rows(table)


def _reads(table, ctxs, index):
    """A table's items, each context's total and dist, and its matrix."""
    return (list(table.items()),
            [(table.total(c), list(table.dist(c).items())) for c in ctxs],
            table.matrix(ctxs, index).tobytes())


SYMBOL = st.sampled_from(["a", "c", UNK, END, "X", "Z", "new"])
ADDS = st.lists(st.tuples(st.tuples(SYMBOL, SYMBOL), SYMBOL,
                          st.sampled_from((1.0, 0.1, 0.2, 2.5))),
                max_size=6)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(train=TAGGED, name=st.sampled_from(list(TABLES)), before=ADDS,
       after=ADDS)
def test_add_to_counted_table_matches_add_loop(train, name, before, after):
    """Counts added to a ``collect_tables`` table, first while its contexts
    are still unmade, then after a query, read as the same adds on the
    ``collect_tables_loop`` table."""
    tables = collect_tables(train)
    got, ids = getattr(tables, name), (dict(tables.words), dict(tables.tags))
    want = collect_tables_loop(train)[1][name]
    width = len(TABLES[name][0])
    for adds in (before, after):
        for ctx, out, k in adds:
            got.add(ctx[:width], out, k)
            want.add(ctx[:width], out, k)
        ctxs = [*want.contexts(), ("new",) * width]
        outs = sorted({o for _c, o, _k in want.items()} | {"new"})
        index = {o: i for i, o in enumerate(reversed(outs))}
        assert _reads(got, ctxs, index) == _reads(want, ctxs, index)
    # the word and tag ids the sibling tables share are never extended
    assert (tables.words, tables.tags) == ids


def _lattice_or_error(lattice, words):
    try:
        first, mats, final = lattice(words)
    except TaggingError as e:
        return str(e)
    return [first.tobytes(), [m.tobytes() for m in mats], final.tobytes()]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(train=TAGGED, heldout=TAGGED,
       test=st.lists(st.lists(st.sampled_from((*WORDS, "f")), min_size=1,
                              max_size=5), max_size=4))
def test_lattice_matches_reference_tables(train, heldout, test):
    """The mixture fits, every position factor and every sentence's lattice
    (or its error) equal those read from dict tables one context at a time
    (tests/oracles.py), bit for bit; "f" is never seen in training."""
    word_counts, ref = collect_tables_loop(train)
    for variant in VARIANTS:
        model = TaggerModel.train(variant, train, heldout)
        target, mix = VARIANT_FACTORS[variant][0], model.mixture
        if mix is not None:
            lambdas, trace = fit_tagger_mixture_loop(word_counts, ref,
                                                     heldout, target)
            assert (list(mix.lambdas.items()), mix.trace) == \
                (list(lambdas.items()), trace)
        oracle = ReferenceTagger(model, word_counts, ref)
        words = sorted({model.tables.map_word(w) for w in (*WORDS, "f")}
                       | {END, UNK})
        for wprev in words:
            for w in words:
                assert model.edge_weight([wprev], [w])[0].tobytes() == \
                    oracle.edge_weight(wprev, w).tobytes()
        for sentence in test:
            assert _lattice_or_error(model._lattice, sentence) == \
                _lattice_or_error(oracle.lattice, sentence)


def test_mixture_components_project_the_full_context():
    tb = collect_tables(toydata.hmm_corpora()[0])
    assert tb.components("pr0") == [(tb.tag_given_word, (0,)),
                                    (tb.trans, (1,)), (tb.full0, (0, 1))]
    assert tb.components("pr1") == [(tb.tag_given_prevword, (0,)),
                                    (tb.trans, (1,)), (tb.full1, (0, 1))]


def test_rare_words_mapped_to_unk():
    corpus = TaggedCorpus([(("ka", "rare"), ("X", "Y")),
                           (("ka", "other"), ("X", "Y"))])
    tb = collect_tables(corpus)
    assert tb.emit.prob(("Y",), UNK) == 1.0
    assert tb.emit.prob(("X",), "ka") == 1.0


def test_collect_tables_empty():
    with pytest.raises(TaggingError, match="empty"):
        collect_tables(TaggedCorpus([]))


def test_joint_sequence_log_prob(det_corpus):
    model = TaggerModel.train("joint", det_corpus)
    assert model.sequence_log_prob(("ka", "li"), ("X", "Y")) == pytest.approx(0.0)
    assert model.sequence_log_prob(("ka", "li"), ("Y", "X")) == float("-inf")


def test_joint_decode_degenerate(det_corpus):
    model = TaggerModel.train("joint", det_corpus)
    assert model.posterior_decode(("ka", "li")) == ("X", "Y")
    assert model.log_partition(("ka", "li")) == pytest.approx(0.0)


@pytest.mark.parametrize("variant", ["joint", "joint-prevword"])
def test_dead_lattice_log_partition(variant):
    # "a" is only ever X, and "b" only ever Y after Z, so no tagging of
    # "a b" or "a b c" has nonzero probability: the lattice dies at the
    # last word of one and before the last word of the other, the two
    # places log_partition can find a zero sum
    corpus = read_tagged("a_X c_W\nd_Z b_Y\n" * 2)
    model = TaggerModel.train(variant, corpus, corpus)
    assert model.log_partition(("a", "b")) == float("-inf")
    assert model.log_partition(("a", "b", "c")) == float("-inf")
    assert math.isfinite(model.log_partition(("a", "c")))


def test_variant_validation(det_corpus):
    with pytest.raises(ValueError, match="unknown variant"):
        TaggerModel.train("bogus", det_corpus)
    with pytest.raises(TaggingError, match="heldout"):
        TaggerModel.train("conditional", det_corpus)
    tables = collect_tables(det_corpus)
    mixture = fit_deleted_interpolation(tables, det_corpus)
    with pytest.raises(ValueError, match="reads mixture pr0"):
        TaggerModel("conditional", tables)
    with pytest.raises(ValueError, match="reads mixture None"):
        TaggerModel("joint", tables, mixture)


def test_decode_tie_breaks_lexicographically():
    corpus = TaggedCorpus([(("w", "w"), ("A", "A")), (("w", "w"), ("B", "B"))])
    model = TaggerModel.train("joint", corpus)
    # A and B are exactly symmetric; ties go to the smaller tag
    assert model.posterior_decode(("w", "w")) == ("A", "A")


def test_marginals_rows_sum_to_one():
    train, heldout, test = toydata.hmm_corpora(n_train=60, n_heldout=20,
                                               n_test=10)
    for variant in VARIANTS:
        model = TaggerModel.train(variant, train, heldout)
        for words, _tags in list(test)[:5]:
            marg = model.posterior_marginals(words)
            assert np.allclose(marg.sum(axis=1), 1.0, atol=1e-12)


def test_lattice_matches_brute_force():
    train, heldout, test = toydata.hmm_corpora(n_train=60, n_heldout=20,
                                               n_test=20)
    short = [(w[:4], t[:4]) for w, t in test][:6]
    for variant in VARIANTS:
        model = TaggerModel.train(variant, train, heldout)
        for words, _tags in short:
            want = brute_tag_partition(model, words)
            assert model.log_partition(words) == pytest.approx(want, abs=1e-10)
            marg = model.posterior_marginals(words)
            bmarg = brute_tag_marginals(model, words)
            for j, d in enumerate(bmarg):
                for i, tag in enumerate(model.tables.tagset):
                    assert marg[j, i] == pytest.approx(d.get(tag, 0.0),
                                                       abs=1e-10)
            assert model.posterior_decode(words) == brute_tag_decode(model,
                                                                     words)


def test_conditional_variant_normalizes_over_tag_sequences():
    # Pr0 factors are conditional per position, so the partition over all
    # tag sequences is 1 whenever no lattice fallback fires.
    train, heldout, test = toydata.hmm_corpora(n_train=60, n_heldout=20,
                                               n_test=20)
    model = TaggerModel.train("conditional", train, heldout)
    checked = 0
    for words, _tags in test:
        words = words[:4]
        first, mats, final = model._lattice(words)
        logz = brute_tag_partition(model, words)
        if logz > float("-inf"):
            assert logz == pytest.approx(0.0, abs=1e-9)
            checked += 1
    assert checked > 0


def test_deleted_interpolation_recovers_full_context():
    train, heldout = toydata.xor_tagged_corpora()
    tb = collect_tables(train)
    mix = fit_deleted_interpolation(tb, heldout, "pr0")
    assert mix.lambdas
    for lam in mix.lambdas.values():
        assert sum(lam) == pytest.approx(1.0, abs=1e-12)
        assert lam[2] > 0.95
    for a, b in zip(mix.trace, mix.trace[1:]):
        assert b >= a - 1e-9


def test_deleted_interpolation_validation(det_corpus):
    tb = collect_tables(det_corpus)
    with pytest.raises(TaggingError, match="empty heldout"):
        fit_deleted_interpolation(tb, TaggedCorpus([]), "pr0")
    with pytest.raises(ValueError, match="pr0"):
        fit_deleted_interpolation(tb, det_corpus, "pr2")


def test_tagging_accuracy():
    assert tagging_accuracy([("X", "Y")], [("X", "Z")]) == pytest.approx(0.5)
    with pytest.raises(TaggingError):
        tagging_accuracy([("X",)], [("X",), ("Y",)])
    with pytest.raises(TaggingError, match="^sentence 2: length mismatch$"):
        tagging_accuracy([("X",), ("X",)], [("X",), ("X", "Y")])


def test_load_tagger_without_tags(tmp_path):
    path = tmp_path / "tagger.txt"
    save_tagger(TaggerModel.train("joint", TaggedCorpus([(("a",), ("X",))])),
                path)
    lines = path.read_text().split("\n")
    lines.remove("<end>\tX\t1")  # the only transition into a tag
    path.write_text("\n".join(lines))
    with pytest.raises(TaggingError, match="no tags"):
        load_tagger(path)


def test_save_load_round_trip(tmp_path):
    train, heldout, test = toydata.hmm_corpora(n_train=60, n_heldout=20,
                                               n_test=10)
    for variant in VARIANTS:
        model = TaggerModel.train(variant, train, heldout)
        path = tmp_path / ("tagger_%s.txt" % variant)
        save_tagger(model, path)
        loaded = load_tagger(path)
        assert loaded.variant == variant
        assert loaded.tables.tagset == model.tables.tagset
        for words, tags in list(test)[:5]:
            assert loaded.posterior_decode(words) == \
                model.posterior_decode(words)
            assert loaded.sequence_log_prob(words, tags) == pytest.approx(
                model.sequence_log_prob(words, tags))
        # every word pair, unseen and UNK included, to the bit: the loaded
        # tables number words in the file's order, not the corpus's
        words = [*model.tables.word_counts, UNK, END, "unseen"]
        wprev, w = zip(*((a, b) for a in words for b in words))
        assert loaded.edge_weight(wprev, w).tobytes() == \
            model.edge_weight(wprev, w).tobytes()


def test_training_decodes_no_context(monkeypatch, tmp_path):
    """Tables stay coded from counting through the fits and the compiled
    arrays: training the four variants makes no context tuple of a table.
    A model file lists them."""
    made = []
    decode = interp.Coder.decode
    monkeypatch.setattr(interp.Coder, "decode",
                        lambda self, codes: made.append(len(codes))
                        or decode(self, codes))
    train, heldout, _test = toydata.hmm_corpora()
    models = [TaggerModel.train(variant, train, heldout)
              for variant in VARIANTS]
    assert made == []
    save_tagger(models[1], tmp_path / "tagger.txt")
    assert len(made) == len(TABLES)


def _scalar_edge(model, wprev, w, tprev, t):
    """The position factor of one transition, straight from the tables."""
    tb = model.tables
    if model.variant == "joint":
        return tb.trans.prob((tprev,), t) * tb.emit.prob((t,), w)
    if model.variant == "conditional":
        return model.mixture.prob((w, tprev), t)
    if model.variant == "joint-prevword":
        return tb.emit.prob((t,), w) * model.mixture.prob((wprev, tprev), t)
    return model.mixture.prob((w, tprev), t) * tb.emit_prev.prob((tprev,), w)


def test_edge_weight_matches_scalar_tables():
    train, heldout, _test = toydata.hmm_corpora()
    for variant in VARIANTS:
        model = TaggerModel.train(variant, train, heldout)
        tb = model.tables
        syms = tb.tagset + (END,)
        words = sorted({tb.map_word(w) for w in tb.word_counts} | {UNK, END})
        for wprev in words:
            for w in words:
                got = model.edge_weight([wprev], [w])[0]
                assert got.shape == (len(syms), len(syms))
                for i, tprev in enumerate(syms):
                    for j, t in enumerate(syms):
                        # exact: the same products and sums in the same order
                        assert got[i, j] == _scalar_edge(model, wprev, w,
                                                         tprev, t)
        words, tags = next(iter(train))
        assert model.sequence_log_prob(words, tags) > float("-inf")
        assert model.sequence_log_prob(words, ("NOT-A-TAG",) + tags[1:]) \
            == float("-inf")
