"""Seeded scale-corpus generators for the benchmark.

Each generator takes a seed, writes plain-text corpus files in the formats
the package reads (bracketed trees, ``word_tag`` lines) and returns the
input sizes that go with every result.  The generators import nothing from
``condest``: the program under test only ever sees the files.

Sizes are fixed per workload (sentence counts and the multiset of sentence
lengths do not depend on the seed), so a seed changes which sentences are
drawn but not how many or how long.
"""

import os
import random


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


def _bracket(node):
    label, kids = node
    if not kids:
        return label
    return "(%s %s)" % (label, " ".join(_bracket(k) for k in kids))


def _leaves(node):
    label, kids = node
    if not kids:
        return [label]
    out = []
    for k in kids:
        out.extend(_leaves(k))
    return out


def _lengths(choices, count):
    """``count`` lengths cycling through ``choices``: the same multiset for
    every seed."""
    return [choices[i % len(choices)] for i in range(count)]


# ---------------------------------------------------------------------------
# pcfg-scale: a random binary PCFG and exact-length samples from it.

PCFG_NONTERMINALS = 40
PCFG_TERMINALS = 20
PCFG_BINARY_PER_NT = 24          # 960 binary rules
PCFG_LEXICAL_PER_NT = 6          # 240 lexical rules
PCFG_TRAIN = (50, range(4, 10))  # trees, yield lengths
# Five lengths, ten sentences each: decode latency grows with the cube of
# the length, and with 100 decodes the 50th and 90th ranks then fall in
# the middle of a length class instead of on the edge between two.
PCFG_TEST = (50, range(4, 13, 2))


def _random_pcfg(rng):
    nts = ["S"] + ["N%02d" % i for i in range(1, PCFG_NONTERMINALS)]
    terms = ["t%02d" % i for i in range(PCFG_TERMINALS)]
    binary, lexical = {}, {}
    for a in nts:
        rhs = set()
        while len(rhs) < PCFG_BINARY_PER_NT:
            rhs.add((rng.choice(nts), rng.choice(nts)))
        binary[a] = [(r, rng.random() + 0.05) for r in sorted(rhs)]
        lexical[a] = [(t, rng.random() + 0.05)
                      for t in sorted(rng.sample(terms, PCFG_LEXICAL_PER_NT))]
    return nts, binary, lexical


def _weighted(rng, options):
    total = sum(w for _, w in options)
    r = rng.random() * total
    for item, w in options:
        r -= w
        if r < 0:
            return item
    return options[-1][0]


def _pcfg_sample(rng, binary, lexical, label, n):
    """A tree over ``label`` whose yield has exactly ``n`` terminals: the
    split point is uniform, the rule is drawn from the grammar's weights."""
    if n == 1:
        return (label, [(_weighted(rng, lexical[label]), [])])
    left, right = _weighted(rng, binary[label])
    k = rng.randint(1, n - 1)
    return (label, [_pcfg_sample(rng, binary, lexical, left, k),
                    _pcfg_sample(rng, binary, lexical, right, n - k)])


def gen_pcfg(seed, outdir):
    rng = random.Random("pcfg-scale/%d" % seed)
    nts, binary, lexical = _random_pcfg(rng)
    files = {}
    sizes = {"generator_rules": sum(len(binary[a]) + len(lexical[a])
                                    for a in nts),
             "nonterminals": len(nts), "terminals": PCFG_TERMINALS}
    for part, (count, choices) in (("train", PCFG_TRAIN), ("test", PCFG_TEST)):
        lengths = _lengths(choices, count)
        rng.shuffle(lengths)
        trees = [_pcfg_sample(rng, binary, lexical, "S", n) for n in lengths]
        path = os.path.join(outdir, "pcfg_%s.mrg" % part)
        _write(path, [_bracket(t) for t in trees])
        files[part] = path
        sizes["%s_sentences" % part] = count
        sizes["%s_tokens" % part] = sum(lengths)
        sizes["%s_distinct_yields" % part] = len(
            {tuple(_leaves(t)) for t in trees})
    return files, sizes


# ---------------------------------------------------------------------------
# tagger-scale: a random bitag generator with a Zipfian vocabulary.

TAGGER_TAGS = 24
TAGGER_VOCAB = 3000
TAGGER_WORDS_PER_TAG = 400
TAGGER_TRAIN = (2000, range(10, 31))
TAGGER_HELDOUT = (30, range(10, 31))
TAGGER_TEST = (25, range(10, 13))


def gen_tagger(seed, outdir):
    rng = random.Random("tagger-scale/%d" % seed)
    tags = ["T%02d" % i for i in range(TAGGER_TAGS)]
    vocab = ["w%04d" % i for i in range(TAGGER_VOCAB)]
    zipf = [1.0 / (r + 1) for r in range(TAGGER_WORDS_PER_TAG)]
    emit = {}
    for t in tags:
        words = rng.sample(vocab, TAGGER_WORDS_PER_TAG)
        emit[t] = list(zip(words, zipf))
    trans = {}
    for t in ["<s>"] + tags:
        # every transition is possible, most of them rare
        trans[t] = [(u, rng.random() ** 4) for u in tags]

    def sentence(n):
        out = []
        t = "<s>"
        for _ in range(n):
            t = _weighted(rng, trans[t])
            out.append("%s_%s" % (_weighted(rng, emit[t]), t))
        return " ".join(out)

    files = {}
    sizes = {"tags": TAGGER_TAGS, "vocabulary": TAGGER_VOCAB}
    for part, (count, choices) in (("train", TAGGER_TRAIN),
                                  ("heldout", TAGGER_HELDOUT),
                                  ("test", TAGGER_TEST)):
        lengths = _lengths(choices, count)
        rng.shuffle(lengths)
        lines = [sentence(n) for n in lengths]
        path = os.path.join(outdir, "tagger_%s.tag" % part)
        _write(path, lines)
        files[part] = path
        sizes["%s_sentences" % part] = count
        sizes["%s_tokens" % part] = sum(lengths)
        sizes["%s_distinct_yields" % part] = len(
            {" ".join(tok.rsplit("_", 1)[0] for tok in line.split())
             for line in lines})
    return files, sizes


# ---------------------------------------------------------------------------
# sr-scale: the bundled PP-attachment grammar plus three recursive rules
# (NP -> NP SBAR, VP -> VP PP, SBAR -> C S), so sentences grow long without
# the beam saturating ``max_states`` the way a random grammar does.

SR_RULES = {
    "S": [(("NP", "VP"), 0.65), (("NP", "VP", "PP"), 0.35)],
    "NP": [(("D", "N"), 0.45), (("D", "J", "N"), 0.2), (("N",), 0.15),
           (("NP", "PP"), 0.1), (("NP", "SBAR"), 0.1)],
    "VP": [(("V", "NP"), 0.45), (("V",), 0.15), (("V", "NP", "PP"), 0.25),
           (("VP", "PP"), 0.15)],
    "PP": [(("P", "NP"), 1.0)],
    "SBAR": [(("C", "S"), 1.0)],
}
SR_MAX_DEPTH = 14
SR_TRAIN = (400, range(3, 41))
SR_HELDOUT = (80, range(3, 41))
SR_TEST = (40, range(15, 41))


def _sr_sample(rng, label, depth):
    options = SR_RULES.get(label)
    if options is None:
        return (label, [])
    if depth > SR_MAX_DEPTH:
        raise _TooDeep
    rhs = _weighted(rng, options)
    return (label, [_sr_sample(rng, c, depth + 1) for c in rhs])


class _TooDeep(Exception):
    pass


def _sr_trees(rng, lengths):
    """Trees whose yields have exactly the given lengths, in order: samples
    are drawn until every length is filled, and a sample no open slot wants
    is dropped."""
    want = {}
    for n in lengths:
        want[n] = want.get(n, 0) + 1
    got = {}
    while want:
        try:
            t = _sr_sample(rng, "S", 0)
        except _TooDeep:
            continue
        n = len(_leaves(t))
        if n in want:
            got.setdefault(n, []).append(t)
            want[n] -= 1
            if not want[n]:
                del want[n]
    return [got[n].pop() for n in lengths]


def gen_sr(seed, outdir):
    # Beam work per sentence is heavy-tailed (one 40-word sentence can cost
    # 30 times another), so over 40 test sentences the decode work swung
    # by a quarter from seed to seed.  The test sentences therefore come
    # from one fixed stream; the seed draws the training and heldout trees.
    streams = {"train": random.Random("sr-scale/%d" % seed),
               "test": random.Random("sr-scale/test")}
    streams["heldout"] = streams["train"]
    files = {}
    sizes = {"generator_rules": sum(len(v) for v in SR_RULES.values())}
    for part, (count, choices) in (("train", SR_TRAIN), ("heldout", SR_HELDOUT),
                                  ("test", SR_TEST)):
        rng = streams[part]
        lengths = _lengths(choices, count)
        rng.shuffle(lengths)
        trees = _sr_trees(rng, lengths)
        path = os.path.join(outdir, "sr_%s.mrg" % part)
        _write(path, [_bracket(t) for t in trees])
        files[part] = path
        sizes["%s_sentences" % part] = count
        sizes["%s_tokens" % part] = sum(lengths)
        sizes["%s_distinct_yields" % part] = len(
            {tuple(_leaves(t)) for t in trees})
    return files, sizes
