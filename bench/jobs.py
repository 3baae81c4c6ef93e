"""One job per workload: the work a run repeats in a closed loop.

A job calls the program's public functions through their modules
(``pcfg.viterbi_parse(...)``), so the probes in ``probes.py`` see every
call.  Each job returns its outputs as text (compared across jobs and
between traced and untraced jobs), its quality figures, and a list of
output-check failures; an empty list means every check passed.
"""

import os
from dataclasses import dataclass, field

from condest import cli, evaluation, hmm, pcfg, shiftreduce, trees

BUNDLED_PIPELINES = ("pcfg-mle-vs-mcle", "hmm-four-way", "sr-joint-vs-cond")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

# MCLE on pcfg-scale: a fixed number of ascent steps small enough that the
# line search rarely shrinks, so every seed does about the same work.
PCFG_ASCENT = pcfg.AscentConfig(max_iters=4, tol=1e-12, initial_step=0.1)
PCFG_BOOTSTRAP_ITERATIONS = 200
SR_THRESHOLDS = (1e-6, 1e-9)


@dataclass
class Outcome:
    text: str
    quality: dict
    problems: list = field(default_factory=list)


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def load(files):
    """Parse a workload's input files with the package readers; other
    files (the bundled experiment configs) are passed on as paths."""
    out = {}
    for part, p in files.items():
        if p.endswith(".mrg"):
            out[part] = trees.read_bracketed(_read(p))
        elif p.endswith(".tag"):
            out[part] = hmm.read_tagged(_read(p))
        else:
            out[part] = p
    return out


def _tree_text(t):
    return "" if t is None else trees.write_tree(t)


def _yield_problems(what, sentences, pred):
    problems = []
    for i, (words, t) in enumerate(zip(sentences, pred)):
        if t is not None and trees.tree_yield(t) != list(words):
            problems.append("%s: parse %d does not yield its sentence"
                            % (what, i))
    if len(pred) != len(sentences):
        problems.append("%s: %d parses for %d sentences"
                        % (what, len(pred), len(sentences)))
    return problems


def pcfg_job(inp, seed):
    train, test = inp["train"], inp["test"]
    mle = pcfg.estimate_mle(pcfg.extract_counts(train))
    trace = []
    mcle = pcfg.estimate_mcle(train, mle, PCFG_ASCENT, trace=trace)
    sentences = [trees.tree_yield(t) for t in test]
    preds, problems, lines, fscores = {}, [], [], []
    for name, g in (("mle", mle), ("mcle", mcle)):
        pred = [pcfg.viterbi_parse(g, words) for words in sentences]
        problems += _yield_problems(name, sentences, pred)
        preds[name] = pred
        rep = evaluation.score_corpus(list(test), pred)
        fscores.append(rep.f_score)
        lines += [_tree_text(t) for t in pred]
    boot = evaluation.bootstrap_test(list(test), preds["mle"], preds["mcle"],
                                     iterations=PCFG_BOOTSTRAP_ITERATIONS,
                                     seed=seed)
    if any(b < a for a, b in zip(trace, trace[1:])):
        problems.append("mcle: CLL trace decreases: %r" % (trace,))
    if trace[-1] < trace[0]:
        problems.append("mcle: final CLL %r below the MLE's %r"
                        % (trace[-1], trace[0]))
    lines.append("cll %r" % (trace,))
    lines.append("bootstrap %r %r" % (boot.p_value, boot.observed_delta_f))
    quality = {"labelled_f": sum(fscores) / len(fscores),
               "cll_per_sent": trace[-1] / len(train)}
    return Outcome("\n".join(lines), quality, problems)


def tagger_job(inp, seed):
    train, heldout, test = inp["train"], inp["heldout"], inp["test"]
    problems, lines, accuracies = [], [], []
    gold_tokens = sum(len(tags) for _w, tags in test)
    for variant in hmm.VARIANTS:
        model = hmm.TaggerModel.train(variant, train, heldout)
        correct = 0
        for i, (words, gold) in enumerate(test):
            try:
                tags = model.posterior_decode(words)
            except hmm.TaggingError as e:
                lines.append("%s %d failed: %s" % (variant, i, e))
                continue
            if len(tags) != len(words):
                problems.append("%s: sentence %d tagged with %d tags for %d "
                                "words" % (variant, i, len(tags), len(words)))
            correct += sum(a == b for a, b in zip(tags, gold))
            lines.append("%s %d %s" % (variant, i, " ".join(tags)))
        # a sentence the tagger failed on counts as all wrong
        accuracies.append(correct / gold_tokens)
    quality = {"tag_accuracy": sum(accuracies) / len(accuracies)}
    return Outcome("\n".join(lines), quality, problems)


def sr_job(inp, seed):
    train = trees.Corpus([trees.binarize(t) for t in inp["train"]])
    heldout = trees.Corpus([trees.binarize(t) for t in inp["heldout"]])
    test = list(inp["test"])
    sentences = [trees.tree_yield(t) for t in test]
    joint = shiftreduce.estimate_joint(train)
    cond = shiftreduce.estimate_conditional(train, heldout)
    baseline = pcfg.estimate_mle(pcfg.extract_counts(train))
    problems, lines, fscores = [], [], []
    for name, model in (("joint", joint), ("conditional", cond)):
        for thr in SR_THRESHOLDS:
            cfg = shiftreduce.BeamConfig(threshold=thr)
            pred, _failures = shiftreduce.parse_corpus(model, sentences, cfg)
            problems += _yield_problems("%s %g" % (name, thr), sentences, pred)
            fscores.append(evaluation.score_corpus(test, pred).f_score)
            lines += [_tree_text(t) for t in pred]
    pred = []
    for words in sentences:
        t = pcfg.viterbi_parse(baseline, words)
        pred.append(None if t is None else trees.debinarize(t))
    problems += _yield_problems("pcfg", sentences, pred)
    fscores.append(evaluation.score_corpus(test, pred).f_score)
    lines += [_tree_text(t) for t in pred]
    quality = {"labelled_f": sum(fscores) / len(fscores)}
    return Outcome("\n".join(lines), quality, problems)


# ---------------------------------------------------------------------------
# bundled: the three ``condest experiment`` pipelines on the bundled corpora.

def bundled_configs(data_dir, work_dir):
    """Write one experiment config per pipeline; returns {pipeline: path}."""
    corpora = {
        "pcfg-mle-vs-mcle": ("pcfg_train.mrg", None, "pcfg_test.mrg"),
        "hmm-four-way": ("hmm_train.tag", "hmm_heldout.tag", "hmm_test.tag"),
        "sr-joint-vs-cond": ("sr_train.mrg", "sr_heldout.mrg", "sr_test.mrg"),
    }
    paths = {}
    for pipeline, (train, heldout, test) in corpora.items():
        lines = ["[experiment]", "pipeline = " + pipeline, "seed = 0",
                 "output_dir = " + os.path.join(work_dir, pipeline),
                 "[corpus]", "train = " + os.path.join(data_dir, train),
                 "test = " + os.path.join(data_dir, test)]
        if heldout:
            lines.append("heldout = " + os.path.join(data_dir, heldout))
        path = os.path.join(work_dir, pipeline + ".cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        paths[pipeline] = path
    return paths


def _reference_files(pipeline):
    d = os.path.join(REFERENCE_DIR, pipeline)
    return sorted(os.listdir(d)) if os.path.isdir(d) else []


def _same_output(ref, got):
    """Equal line by line; numeric fields may differ by one unit in the
    sixth decimal, the precision ``report.tsv`` prints."""
    ref_lines, got_lines = ref.split("\n"), got.split("\n")
    if len(ref_lines) != len(got_lines):
        return False
    for a, b in zip(ref_lines, got_lines):
        if a == b:
            continue
        fa, fb = a.split("\t"), b.split("\t")
        if len(fa) != len(fb):
            return False
        for x, y in zip(fa, fb):
            if x == y:
                continue
            try:
                if abs(float(x) - float(y)) > 1.5e-6:
                    return False
            except ValueError:
                return False
    return True


def bundled_job(inp, seed):
    problems, lines = [], []
    outs = {p: os.path.join(os.path.dirname(inp[p]), p)
            for p in BUNDLED_PIPELINES}
    for pipeline in BUNDLED_PIPELINES:
        code = cli.main(["experiment", inp[pipeline]])
        if code != 0:
            problems.append("%s: condest experiment exited %d"
                            % (pipeline, code))
            return Outcome("", {}, problems)
        names = _reference_files(pipeline)
        if not names:
            problems.append("%s: no reference outputs" % pipeline)
        for name in names:
            got = _read(os.path.join(outs[pipeline], name))
            ref = _read(os.path.join(REFERENCE_DIR, pipeline, name))
            if not _same_output(ref, got):
                problems.append("%s: %s differs from the reference"
                                % (pipeline, name))
            lines.append("== %s/%s\n%s" % (pipeline, name, got))

    def report(pipeline):
        text = _read(os.path.join(outs[pipeline], "report.tsv"))
        return [line.split("\t") for line in text.strip().split("\n")[1:]]

    fscores = [float(x) for row in report("pcfg-mle-vs-mcle")
               if row[0] == "labelled_f" for x in row[1:3]]
    fscores += [float(row[4]) for row in report("sr-joint-vs-cond")]
    accuracies = [float(row[1]) for row in report("hmm-four-way")]
    cll = float(_read(os.path.join(outs["pcfg-mle-vs-mcle"],
                                   "cll_trace.txt")).split()[-1])
    quality = {"labelled_f": sum(fscores) / len(fscores),
               "tag_accuracy": sum(accuracies) / len(accuracies),
               "cll_per_sent": cll / len(inp["pcfg_train"])}
    return Outcome("\n".join(lines), quality, problems)


JOBS = {"pcfg-scale": pcfg_job, "tagger-scale": tagger_job,
        "sr-scale": sr_job, "bundled": bundled_job}
