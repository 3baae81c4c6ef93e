"""Property tests of the model-file codec over all three model kinds."""

import io
import os
import random
import re
import tempfile
from collections import namedtuple
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condest import cli
from condest.hmm import (VARIANTS, TaggedCorpus, TaggerModel, TaggingError,
                         load_tagger, save_tagger)
from condest.pcfg import (EstimationError, estimate_mle, extract_counts,
                          load_grammar, save_grammar)
from condest.shiftreduce import (ParserError, estimate_conditional,
                                 estimate_joint, load_sr, save_sr)
from condest.trees import Corpus, tree_yield, write_bracketed
from oracles import random_binary_tree

# Symbols as the corpus readers produce them (no whitespace), drawn to
# include a leading "[" or "#".  No "*" (the shift-reduce stack marker) and
# no "<" (the tagger's end marker).
SYMBOLS = st.text(alphabet="ab[#]_", min_size=1, max_size=3)


@st.composite
def treebanks(draw, clash=None):
    """Binarized trees sharing one root label; returns (trees, yields).

    Leaves and labels are drawn from one alphabet, so a leaf may also be a
    label.  With ``clash`` False none is; with ``clash`` True the first
    tree has one leaf equal to the root label and no other such leaf.
    """
    labels = draw(st.lists(SYMBOLS, min_size=1, max_size=3, unique=True))
    leaf = SYMBOLS if clash is None else SYMBOLS.filter(
        lambda s: s not in labels)
    leaves = draw(st.lists(leaf, min_size=1, max_size=3, unique=True))
    rng = draw(st.randoms(use_true_random=False))
    trees = []
    for i in range(rng.randint(1, 4)):
        words = [rng.choice(leaves) for _ in range(rng.randint(1, 4))]
        if clash and i == 0:
            words[rng.randrange(len(words))] = labels[0]
        trees.append(random_binary_tree(rng, words, labels=tuple(labels),
                                        root=labels[0]))
    return Corpus(trees), [tree_yield(t) for t in trees]


@st.composite
def grammars(draw):
    trees, yields = draw(treebanks(clash=False))
    return estimate_mle(extract_counts(trees)), yields


@st.composite
def taggers(draw):
    sentence = st.lists(st.tuples(SYMBOLS, SYMBOLS), min_size=1, max_size=4)
    pairs = draw(st.lists(sentence, min_size=1, max_size=4))
    corpus = TaggedCorpus([tuple(zip(*s)) for s in pairs])
    variant = draw(st.sampled_from(VARIANTS))
    return (TaggerModel.train(variant, corpus, corpus),
            [words for words, _tags in corpus])


@st.composite
def sr_models(draw):
    trees, yields = draw(treebanks())
    if draw(st.booleans()):
        return estimate_joint(trees), yields
    return estimate_conditional(trees, trees), yields


Kind = namedtuple("Kind", "models save load error command")
KINDS = {
    "grammar": Kind(grammars(), save_grammar, load_grammar, EstimationError,
                    "parse --grammar"),
    "tagger": Kind(taggers(), save_tagger, load_tagger, TaggingError,
                   "tag --model"),
    "sr": Kind(sr_models(), save_sr, load_sr, ParserError,
               "parse-sr --model"),
}

CODEC = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)


def _read(path):
    with open(path, "rb") as f:
        return f.read()


@pytest.mark.parametrize("name", KINDS)
@CODEC
@given(data=st.data())
def test_save_load_save_is_byte_identical(name, data):
    kind = KINDS[name]
    model, _sentences = data.draw(kind.models)
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "a"), os.path.join(d, "b")
        kind.save(model, first)
        kind.save(kind.load(first), second)
        assert _read(first) == _read(second)


@pytest.mark.parametrize("name", KINDS)
@CODEC
@given(data=st.data())
def test_corrupted_line_loads_or_exits_1(name, data):
    """Deleting, truncating or dropping a field from any one line of a saved
    model either leaves a loadable file or makes the CLI exit 1; nothing
    raises out of the CLI."""
    kind = KINDS[name]
    model, sentences = data.draw(kind.models)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model")
        kind.save(model, path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")[:-1]
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        op = data.draw(st.sampled_from(("delete", "truncate", "drop-field")))
        if op == "delete":
            del lines[i]
        elif op == "truncate":
            lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 1))]
        else:
            fields = lines[i].split("\t")
            del fields[data.draw(st.integers(0, len(fields) - 1))]
            lines[i] = "\t".join(fields)
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in lines))
        sents = os.path.join(d, "sents.txt")
        with open(sents, "w", encoding="utf-8") as f:
            f.write("".join(" ".join(words) + "\n" for words in sentences))
        try:
            kind.load(path)
            loaded = True
        except kind.error:
            loaded = False
        with redirect_stderr(io.StringIO()):
            code = cli.main(kind.command.split() + [
                path, "--input", sents, "-o", os.path.join(d, "out")])
        assert code in (0, 1) if loaded else code == 1


@pytest.mark.parametrize("name", KINDS)
@CODEC
@given(data=st.data())
def test_repeated_row_is_refused(name, data):
    """A saved model with any one row written twice is refused at the
    second copy: a rule, word, table row or lambda bucket appears once."""
    kind = KINDS[name]
    model, _sentences = data.draw(kind.models)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model")
        kind.save(model, path)
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")[:-1]
        rows = [i for i, line in enumerate(lines) if "\t" in line]
        i = data.draw(st.sampled_from(rows), label="row")
        lines.insert(i + 1, lines[i])
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(line + "\n" for line in lines))
        with pytest.raises(kind.error, match="%s:%d: " % (path, i + 2)):
            kind.load(path)


@CODEC
@given(data=st.data())
def test_leaf_that_is_a_label_is_refused(data):
    """A treebank with a leaf that is also a node label does not train a
    grammar: train-pcfg exits 1 naming the tree and the symbol, and writes
    nothing."""
    trees, _yields = data.draw(treebanks(clash=True))
    with tempfile.TemporaryDirectory() as d:
        path, out = os.path.join(d, "train.mrg"), os.path.join(d, "g.gram")
        with open(path, "w", encoding="utf-8") as f:
            f.write(write_bracketed(trees))
        err = io.StringIO()
        with redirect_stderr(err):
            assert cli.main(["train-pcfg", "--train", path, "-o", out]) == 1
        assert err.getvalue() == (
            "error: tree 0: leaf %r is also a nonterminal label\n"
            % trees.trees[0].label)
        assert not os.path.exists(out)


@pytest.mark.parametrize("name, section, width", [
    ("tagger", "[table:full0]", 2), ("sr", "[joint]", 2),
    ("sr", "[full]", 3)])
@pytest.mark.parametrize("cut", [-1, 1])
def test_context_length_is_checked_at_its_line(tmp_path, name, section,
                                               width, cut):
    """A table row whose context has one symbol too few or too many is
    refused at its line, naming both counts."""
    trees = Corpus([random_binary_tree(random.Random(0), ["a", "b", "a"])])
    tagged = TaggedCorpus([(("a", "b"), ("X", "Y"))])
    model = (estimate_conditional(trees, trees) if name == "sr" else
             TaggerModel.train("conditional", tagged, tagged))
    path = str(tmp_path / "model")
    KINDS[name].save(model, path)
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")[:-1]
    i = lines.index(section) + 1
    context, outcome, count = lines[i].split("\t")
    symbols = context.split(" ")
    symbols = symbols[:cut] if cut < 0 else symbols + ["a"] * cut
    lines[i] = "\t".join((" ".join(symbols), outcome, count))
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))
    with pytest.raises(KINDS[name].error, match="^%s:%d: .* has %d fields, "
                       "expected %d$" % (re.escape(path), i + 1, width + cut,
                                         width)):
        KINDS[name].load(path)
