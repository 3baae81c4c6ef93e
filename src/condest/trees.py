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
        """Same labels and arities in post-order, which fix a tree.  Trees
        are unhashable."""
        if not isinstance(other, Tree):
            return NotImplemented
        return [(n.label, len(n.children)) for n in postorder(self)] == [
            (n.label, len(n.children)) for n in postorder(other)]

    def __repr__(self):
        return "Tree(%r)" % (write_tree(self),)


def postorder(t):
    """Every node of t, children before their parent and siblings left to
    right.  The tree transforms all walk through it: an explicit stack, so
    a tree of any depth is walked."""
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    out.reverse()
    return out


def fold(t, combine):
    """Bottom-up value of t: ``combine(node, values)`` receives the values
    of node's children, left to right (empty for a leaf)."""
    values = []
    for node in postorder(t):
        cut = len(values) - len(node.children)
        values[cut:] = [combine(node, values[cut:])]
    return values[0]


def tree_yield(t):
    """Left-to-right sequence of leaf labels."""
    return [node.label for node in postorder(t) if node.is_leaf()]


def write_tree(t):
    """Bracketed text of t, built without recursion."""
    out, todo = [], [t]   # todo: trees and literal text, last first
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif node.is_leaf():
            out.append(node.label)
        else:
            out.append("(" + node.label)
            todo.append(")")
            for c in reversed(node.children):
                todo += (c, " ")
    return "".join(out)


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_trees(text):
    """Parse a sequence of bracketed tree expressions.

    Raises TreebankError with line/column information on unbalanced
    parentheses or empty nodes.
    """
    return _parse(text.split("\n"), "line %(line)d, column %(column)d")


def parse_line(line):
    """The trees on one line of text, as ``parse_trees`` reads them; an
    error's position names the column only."""
    return _parse([line], "column %(column)d")


def _parse(lines, position):
    """The trees on ``lines``; an error's position is ``position`` filled
    with the 1-based ``line`` and ``column``."""
    trees = []
    stack = []  # (label, children) frames; label None until first token

    def at():
        return position % {"line": lineno, "column": col}

    for lineno, line in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(line):
            tok = m.group()
            col = m.start() + 1
            if tok == "(":
                stack.append([None, []])
            elif tok == ")":
                if not stack:
                    raise TreebankError("unbalanced ')' at %s" % at())
                label, children = stack.pop()
                if label is None:
                    raise TreebankError("empty node at %s" % at())
                node = Tree(label, children)
                if stack:
                    stack[-1][1].append(node)
                else:
                    trees.append(node)
            else:
                if not stack:
                    raise TreebankError(
                        "token %r outside any tree at %s" % (tok, at()))
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

    def strip(node, kids):   # a leaf's value is None
        if kids == [None]:
            return Tree(node.label)
        for c in node.children:
            if c.is_leaf():
                raise TreebankError(
                    "leaf %r under %r has siblings; not a preterminal"
                    % (c.label, node.label))
        return Tree(node.label, kids) if kids else None

    return fold(t, strip)


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

    def join(node, kids):
        if MARKER in node.label:
            raise TreebankError("label %r contains the binarization marker %r"
                                % (node.label, MARKER))
        n = len(kids)
        if n <= 2:
            return Tree(node.label, kids) if kids else node
        h = rules.head_index(node.label, [c.label for c in node.children])
        cur = kids[h]
        for j in range(h + 1, n):
            cur = Tree(cur.label + MARKER + "2", (cur, kids[j]))
        for j in range(h - 1, -1, -1):
            cur = Tree(cur.label + MARKER + "1", (kids[j], cur))
        return Tree(node.label, cur.children)

    return fold(t, join)


def debinarize(t):
    """Splice out every node introduced by ``binarize`` (inverse transform).
    Each node's value is the list of trees it leaves in its parent."""

    def splice(node, parts):
        kids = [k for part in parts for k in part]
        if not kids:
            return [node]
        if node is t or not node.label.endswith((MARKER + "1", MARKER + "2")):
            return [Tree(node.label, kids)]
        return kids

    return fold(t, splice)[0]
