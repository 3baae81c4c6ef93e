"""Bracketed parse trees and treebank transformations.

Trees are immutable: every operation returns a new tree.  Leaves are
terminal symbols; in the unlexicalized setting used throughout this
package the terminals are the preterminal (POS) labels left behind by
``strip_lexical``.
"""

import re
from dataclasses import dataclass

MARKER = "^"   # marks the nodes binarize introduces


class TreebankError(ValueError):
    """Malformed bracketed input or malformed treebank structure."""


class Tree:
    """Ordered labelled tree.  A node with no children is a terminal leaf."""

    __slots__ = ("label", "children")

    def __init__(self, label, children=()):
        self.label = label
        self.children = tuple(children)

    def is_leaf(self):
        return not self.children

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self.label == other.label and self.children == other.children

    def __hash__(self):
        return hash((self.label, self.children))

    def __repr__(self):
        return "Tree(%r)" % (write_tree(self),)


def tree_yield(t):
    """Left-to-right sequence of leaf labels."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node.is_leaf():
            out.append(node.label)
        else:
            stack.extend(reversed(node.children))
    return out


def write_tree(t):
    if t.is_leaf():
        return t.label
    return "(%s %s)" % (t.label, " ".join(write_tree(c) for c in t.children))


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_trees(text):
    """Parse a sequence of bracketed tree expressions.

    Raises TreebankError with line/column information on unbalanced
    parentheses or empty nodes.
    """
    trees = []
    stack = []  # (label, children) frames; label None until first token
    lines = text.split("\n")
    for lineno, line in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(line):
            tok = m.group()
            col = m.start() + 1
            if tok == "(":
                stack.append([None, []])
            elif tok == ")":
                if not stack:
                    raise TreebankError(
                        "unbalanced ')' at line %d, column %d" % (lineno, col))
                label, children = stack.pop()
                if label is None:
                    raise TreebankError(
                        "empty node at line %d, column %d" % (lineno, col))
                node = Tree(label, children)
                if stack:
                    stack[-1][1].append(node)
                else:
                    trees.append(node)
            else:
                if not stack:
                    raise TreebankError(
                        "token %r outside any tree at line %d, column %d"
                        % (tok, lineno, col))
                if stack[-1][0] is None:
                    stack[-1][0] = tok
                else:
                    stack[-1][1].append(Tree(tok))
    if stack:
        raise TreebankError("unbalanced '(' at end of input (%d open)" % len(stack))
    return trees


@dataclass
class Corpus:
    """A sequence of trees."""
    trees: list

    def __len__(self):
        return len(self.trees)

    def __iter__(self):
        return iter(self.trees)


def read_bracketed(text):
    """Read a bracketed-tree stream into a Corpus (file order preserved)."""
    return Corpus(parse_trees(text))


def write_bracketed(corpus):
    return "".join(write_tree(t) + "\n" for t in corpus.trees)


def strip_lexical(t):
    """Replace each preterminal (unary node over a leaf) by a terminal leaf
    bearing the preterminal label.  Lexical items are discarded."""
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
        kids.append(strip_lexical(c))
    return Tree(t.label, kids)


class HeadRules:
    """Head-child selection table: parent label -> (direction, preference list).

    Default rule (no entry): leftmost child whose label equals the parent
    label, else the rightmost child.
    """

    def __init__(self, table=None):
        self.table = dict(table or {})

    @classmethod
    def from_text(cls, text):
        """One line per parent: ``PARENT: dir label1 label2 ...`` where dir is
        ``left`` or ``right`` (the fallback scan direction)."""
        table = {}
        for lineno, line in enumerate(text.split("\n"), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise TreebankError("head-rules line %d: missing ':'" % lineno)
            parent, rest = line.split(":", 1)
            parts = rest.split()
            if not parts or parts[0] not in ("left", "right"):
                raise TreebankError(
                    "head-rules line %d: direction must be left|right" % lineno)
            table[parent.strip()] = (parts[0], parts[1:])
        return cls(table)

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_text(f.read())

    def head_index(self, parent, child_labels):
        """Index of the head child among ``child_labels`` (non-empty)."""
        if not child_labels:
            raise TreebankError("no children to pick a head from")
        entry = self.table.get(parent)
        if entry is None:
            for i, lbl in enumerate(child_labels):
                if lbl == parent:
                    return i
            return len(child_labels) - 1
        direction, prefs = entry
        indices = range(len(child_labels))
        if direction == "right":
            indices = range(len(child_labels) - 1, -1, -1)
        for lbl in prefs:
            for i in indices:
                if child_labels[i] == lbl:
                    return i
        return 0 if direction == "left" else len(child_labels) - 1


def binarize(t, rules=None):
    """Head-driven binarization.

    Each local tree with n > 2 children gains n-2 nodes: the head child is
    first joined with the constituents to its right, then the result is
    joined with the constituents to its left.  An introduced node is
    labelled with its head-containing child's label plus "^2" (MARKER)
    when the head sits in the left child, "^1" when it sits in the right
    child.  The topmost node keeps the original parent label.
    """
    if rules is None:
        rules = HeadRules()
    if MARKER in t.label:
        raise TreebankError("label %r contains the binarization marker %r"
                            % (t.label, MARKER))
    if t.is_leaf():
        return t
    kids = [binarize(c, rules) for c in t.children]
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


def _is_binarization_label(label):
    return label.endswith(MARKER + "1") or label.endswith(MARKER + "2")


def debinarize(t):
    """Splice out every node introduced by ``binarize`` (inverse transform)."""
    if t.is_leaf():
        return t
    kids = []
    for c in t.children:
        _debinarize_into(c, kids)
    return Tree(t.label, kids)


def _debinarize_into(node, out):
    if not node.is_leaf() and _is_binarization_label(node.label):
        for c in node.children:
            _debinarize_into(c, out)
    else:
        out.append(debinarize(node))
