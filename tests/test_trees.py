import random

import pytest

from condest.trees import (HeadRules, Tree, TreebankError, binarize,
                           debinarize, parse_trees, read_bracketed,
                           strip_lexical, tree_yield, write_bracketed,
                           write_tree)
from oracles import random_nary_tree


def t(s):
    return parse_trees(s)[0]


def test_parse_simple():
    tree = t("(S (A a))")
    assert tree.label == "S"
    assert tree.children[0].label == "A"
    assert tree.children[0].children[0].label == "a"


def test_parse_two_children():
    tree = t("(S (A a) (B b))")
    assert [c.label for c in tree.children] == ["A", "B"]


def test_parse_multiple_trees():
    trees = parse_trees("(S (A a))\n(S (B b))")
    assert len(trees) == 2


def test_unbalanced_open():
    with pytest.raises(TreebankError, match="unbalanced"):
        parse_trees("(S (A a)")


def test_unbalanced_close():
    with pytest.raises(TreebankError, match="line 1"):
        parse_trees("(S (A a)))")


def test_empty_node():
    with pytest.raises(TreebankError, match="empty node"):
        parse_trees("(S ())")


def test_write_round_trip():
    text = "(S (A a) (B (C c) (D d)))"
    assert write_tree(t(text)) == text


def test_corpus_round_trip():
    c = read_bracketed("(S (A a))\n(S (A a) (B b))\n")
    assert read_bracketed(write_bracketed(c)) == c


def test_strip_lexical():
    assert strip_lexical(t("(S (A a) (B b))")) == t("(S A B)")
    assert tree_yield(strip_lexical(t("(S (A a) (B b))"))) == ["A", "B"]


def test_strip_lexical_repeated():
    assert tree_yield(strip_lexical(t("(S (A a) (A a))"))) == ["A", "A"]


def test_strip_lexical_malformed():
    with pytest.raises(TreebankError, match="siblings"):
        strip_lexical(t("(S a (A b))"))


def test_yield():
    assert tree_yield(t("(S (A a) (B b))")) == ["a", "b"]
    assert tree_yield(Tree("a")) == ["a"]


def test_binarize_four_children():
    rules = HeadRules({"P": ("left", ["C2"])})
    tree = t("(P C1 C2 C3 C4)")
    out = binarize(tree, rules)
    assert write_tree(out) == "(P C1 (C2^2^2 (C2^2 C2 C3) C4))"
    assert debinarize(out) == tree


def test_binarize_passthrough():
    rules = HeadRules()
    assert binarize(t("(P C1 C2)"), rules) == t("(P C1 C2)")
    assert binarize(t("(P C1)"), rules) == t("(P C1)")


def test_binarize_head_last():
    rules = HeadRules({"P": ("right", ["C3"])})
    out = binarize(t("(P C1 C2 C3)"), rules)
    # head C3: join leftward only
    assert write_tree(out) == "(P C1 (C3^1 C2 C3))"


def test_binarize_rejects_marker_in_label():
    with pytest.raises(TreebankError, match="marker"):
        binarize(t("(S (A^1 a) (B b))"))


def test_debinarize_untouched():
    tree = t("(S (A a) (B b))")
    assert debinarize(tree) == tree


def _count_nodes(tree):
    return 0 if tree.is_leaf() else 1 + sum(_count_nodes(c) for c in tree.children)


def _inserted_nodes_expected(tree):
    if tree.is_leaf():
        return 0
    own = max(len(tree.children) - 2, 0)
    return own + sum(_inserted_nodes_expected(c) for c in tree.children)


def test_binarize_round_trip_random():
    rng = random.Random(7)
    rules = HeadRules()
    for _ in range(200):
        tree = random_nary_tree(rng)
        b = binarize(tree, rules)
        assert debinarize(b) == tree
        assert tree_yield(b) == tree_yield(tree)
        for node in _walk(b):
            assert len(node.children) <= 2 or node.is_leaf()
        assert _count_nodes(b) == _count_nodes(tree) + _inserted_nodes_expected(tree)


def _walk(tree):
    yield tree
    for c in tree.children:
        yield from _walk(c)


def test_head_rules_from_text():
    rules = HeadRules.from_text("VP: left V VB\nNP: right N\n# comment\n")
    assert rules.head_index("VP", ["X", "V", "N"]) == 1
    assert rules.head_index("NP", ["N", "X", "N"]) == 2
    assert rules.head_index("NP", ["X", "Y"]) == 1  # right fallback
    # default: leftmost child matching parent, else rightmost
    assert rules.head_index("S", ["A", "S", "S"]) == 1
    assert rules.head_index("S", ["A", "B"]) == 1


def test_head_rules_bad_direction():
    with pytest.raises(TreebankError):
        HeadRules.from_text("NP: sideways N")
