"""Bundled synthetic corpora.

ATIS and the Penn Treebank are licensed and cannot ship, so the experiment
pipelines run on small seeded synthetic treebanks instead:

- a 200-tree ambiguous PCFG corpus whose conditional optimum provably
  differs from the relative-frequency estimate;
- an n-ary treebank with PP-attachment ambiguity for the shift-reduce and
  binarization experiments;
- tagged corpora from a hand-built bitag generator, plus an XOR-style
  corpus whose tags are a deterministic function of (word, previous tag),
  used to exercise deleted interpolation.

Run ``python -m condest.toydata OUTDIR`` to write all corpus files.
"""

import random

from .hmm import TaggedCorpus, write_tagged
from .trees import Corpus, Tree, parse_trees, tree_yield, write_bracketed


def _t(s):
    return parse_trees(s)[0]


# ---------------------------------------------------------------------------
# Ambiguous PCFG corpus.  The "c" sentences pin down B's terminal
# distribution, so the MLE's conditional probabilities for the ambiguous
# "a a" sentences cannot match their empirical frequencies and gradient
# ascent on the conditional likelihood has room to improve.

_PCFG_TREES = [
    (_t("(S (A a) (A a))"), 70),
    (_t("(S (A a) (B a))"), 25),
    (_t("(S (A a) (B b))"), 45),
    (_t("(S (C c) (B a))"), 30),
    (_t("(S (C c) (B b))"), 30),
]


def pcfg_train_corpus(seed=0):
    """The bundled 200-tree ambiguous toy corpus (stripped trees)."""
    trees = []
    for t, n in _PCFG_TREES:
        trees.extend([t] * n)
    random.Random(seed).shuffle(trees)
    return Corpus(trees)


def pcfg_test_corpus(seed=1, n=40):
    rng = random.Random(seed)
    pool = [t for t, k in _PCFG_TREES for _ in range(k)]
    return Corpus([rng.choice(pool) for _ in range(n)])


# ---------------------------------------------------------------------------
# N-ary treebank with PP-attachment ambiguity (leaves are preterminals).

_SR_RULES = {
    "S": [(("NP", "VP"), 0.65), (("NP", "VP", "PP"), 0.35)],
    "NP": [(("D", "N"), 0.5), (("D", "J", "N"), 0.2), (("N",), 0.2),
           (("NP", "PP"), 0.1)],
    "VP": [(("V", "NP"), 0.55), (("V",), 0.15), (("V", "NP", "PP"), 0.3)],
    "PP": [(("P", "NP"), 1.0)],
}
_SR_SAFE = {
    "S": [(("NP", "VP"), 1.0)],
    "NP": [(("D", "N"), 0.5), (("N",), 0.5)],
    "VP": [(("V", "NP"), 0.5), (("V",), 0.5)],
    "PP": [(("P", "NP"), 1.0)],
}
_SR_LEAF = {**_SR_SAFE,
            "NP": [(("N",), 1.0)],
            "VP": [(("V",), 1.0)]}


def _sample_tree(rng, label):
    """Expand ``label`` top-down, children left to right, on an explicit
    stack; then build the tree bottom-up from its pre-order (label,
    arity) list."""
    todo, spine = [(label, 0)], []
    while todo:
        label, depth = todo.pop()
        rules = (_SR_RULES if depth <= 5 else _SR_SAFE if depth <= 8
                 else _SR_LEAF)
        rhs = _pick(rng, rules[label]) if label in rules else ()
        spine.append((label, len(rhs)))
        todo += [(child, depth + 1) for child in reversed(rhs)]
    built = []   # finished subtrees, leftmost child on top
    for label, arity in reversed(spine):
        built.append(Tree(label, [built.pop() for _ in range(arity)]))
    return built[0]


def sr_treebank(seed=0, n=200, max_len=12):
    rng = random.Random(seed)
    trees = []
    while len(trees) < n:
        t = _sample_tree(rng, "S")
        if len(tree_yield(t)) <= max_len:
            trees.append(t)
    return Corpus(trees)


def sr_corpora(seed=0, n_train=200, n_heldout=40, n_test=40):
    return (sr_treebank(seed, n_train),
            sr_treebank(seed + 1, n_heldout),
            sr_treebank(seed + 2, n_test))


# ---------------------------------------------------------------------------
# Tagged corpora.

_HMM_TAGS = ("X", "Y", "Z")
_HMM_START = {"X": 0.5, "Y": 0.3, "Z": 0.2}
_HMM_TRANS = {
    "X": {"X": 0.1, "Y": 0.6, "Z": 0.3},
    "Y": {"X": 0.5, "Y": 0.2, "Z": 0.3},
    "Z": {"X": 0.4, "Y": 0.4, "Z": 0.2},
}
_HMM_EMIT = {
    "X": {"ka": 0.5, "li": 0.3, "mo": 0.2},
    "Y": {"mo": 0.4, "nu": 0.4, "pe": 0.2},
    "Z": {"pe": 0.3, "ro": 0.5, "ka": 0.2},
}


def _pick(rng, items):
    """What one uniform draw picks from (choice, probability) items."""
    r = rng.random()
    acc = 0.0
    for k, p in items:
        acc += p
        if r < acc:
            return k
    return items[-1][0]


def hmm_corpus(seed=0, n=300):
    rng = random.Random(seed)
    sentences = []
    for _ in range(n):
        m = rng.randint(3, 10)
        tags, words = [], []
        t = _pick(rng, sorted(_HMM_START.items()))
        for _j in range(m):
            tags.append(t)
            words.append(_pick(rng, sorted(_HMM_EMIT[t].items())))
            t = _pick(rng, sorted(_HMM_TRANS[t].items()))
        sentences.append((tuple(words), tuple(tags)))
    return TaggedCorpus(sentences)


def hmm_corpora(seed=0, n_train=300, n_heldout=60, n_test=60):
    return (hmm_corpus(seed, n_train),
            hmm_corpus(seed + 1, n_heldout),
            hmm_corpus(seed + 2, n_test))


def xor_tagged_corpus(seed=0, n=200):
    """Tags are a deterministic XOR of the word and the previous tag, so the
    single-variable empirical conditionals are near-uniform while the full
    (word, previous-tag) table is exact: deleted interpolation should put
    nearly all weight on the full-context component."""
    rng = random.Random(seed)
    sentences = []
    for _ in range(n):
        m = rng.randint(6, 10)
        words, tags = [], []
        prev_bit = 1  # the start marker behaves like tag X
        for _j in range(m):
            w = rng.choice(("u", "v"))
            w_bit = 1 if w == "u" else 0
            t = "X" if prev_bit == w_bit else "Y"
            words.append(w)
            tags.append(t)
            prev_bit = 1 if t == "X" else 0
        sentences.append((tuple(words), tuple(tags)))
    return TaggedCorpus(sentences)


def xor_tagged_corpora(seed=0, n_train=200, n_heldout=80):
    return xor_tagged_corpus(seed, n_train), xor_tagged_corpus(seed + 1, n_heldout)


# ---------------------------------------------------------------------------

def write_all(outdir):
    import os
    os.makedirs(outdir, exist_ok=True)

    def put(name, text):
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as f:
            f.write(text)

    put("pcfg_train.mrg", write_bracketed(pcfg_train_corpus()))
    put("pcfg_test.mrg", write_bracketed(pcfg_test_corpus()))
    train, heldout, test = sr_corpora()
    put("sr_train.mrg", write_bracketed(train))
    put("sr_heldout.mrg", write_bracketed(heldout))
    put("sr_test.mrg", write_bracketed(test))
    htrain, hheld, htest = hmm_corpora()
    put("hmm_train.tag", write_tagged(htrain))
    put("hmm_heldout.tag", write_tagged(hheld))
    put("hmm_test.tag", write_tagged(htest))


if __name__ == "__main__":
    import sys
    write_all(sys.argv[1] if len(sys.argv) > 1 else "toydata")
