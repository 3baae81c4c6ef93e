"""Command-line driver: single-step subcommands plus the ``experiment``
pipelines that bind the modules into the three estimation comparisons
(PCFG MLE vs MCLE, the four tagging models, joint vs conditional
shift-reduce parsing).

Exit codes: 0 ok, 1 data error, 2 config error.
"""

import argparse
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass

from . import evaluation, hmm, pcfg, shiftreduce, trees
from .pcfg import AscentConfig
from .shiftreduce import BeamConfig

DATA_ERRORS = (trees.TreebankError, pcfg.EstimationError, hmm.TaggingError,
               shiftreduce.ParserError, evaluation.EvalError,
               OSError, UnicodeDecodeError)

PIPELINES = ("pcfg-mle-vs-mcle", "hmm-four-way", "sr-joint-vs-cond")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Line-oriented key/value config with [section] headers.

def parse_config_text(text):
    sections = {}
    current = None
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value'" % lineno)
        if current is None:
            raise ConfigError("line %d: key outside any [section]" % lineno)
        key, val = line.split("=", 1)
        sections[current][key.strip()] = val.strip()
    return sections


# Every section and key an experiment config may set, with its default
# (None: no default).
CONFIG_KEYS = {
    "experiment": {"pipeline": None, "output_dir": None, "seed": "0"},
    "corpus": {"train": None, "heldout": None, "test": None},
    "pcfg": {"max_iters": "200", "tol": "1e-6", "initial_step": "1.0",
             "line_search_shrink": "0.5"},
    "beam": {"thresholds": "1e-6 1e-9", "observed_pair_filter": "true"},
    "bootstrap": {"iterations": "2000"},
    "treebank": {"head_rules": None},
}


@dataclass
class ExperimentConfig:
    """A loaded config; the defaults are those of CONFIG_KEYS."""
    pipeline: str
    train: str
    output_dir: str
    heldout: str
    test: str
    seed: int
    ascent: AscentConfig
    beam_thresholds: tuple
    observed_pair_filter: bool
    bootstrap_iterations: int
    head_rules: str


def _parse_bool(text):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ConfigError("expected a boolean, got %r" % text)


def load_config(path, check_paths=True):
    """Load and validate an experiment config; raises ConfigError listing
    every problem found."""
    with open(path, encoding="utf-8") as f:
        sections = parse_config_text(f.read())
    errors = []
    for name, keys in sections.items():
        if name not in CONFIG_KEYS:
            errors.append("unknown section [%s]" % name)
            continue
        errors += ["unknown key %s.%s" % (name, key) for key in keys
                   if key not in CONFIG_KEYS[name]]
    c = {name: {**defaults, **sections.get(name, {})}
         for name, defaults in CONFIG_KEYS.items()}
    exp, corpus, pcfg_sec, beam_sec = (c["experiment"], c["corpus"],
                                       c["pcfg"], c["beam"])
    pipeline = exp["pipeline"]
    if pipeline not in PIPELINES:
        errors.append("experiment.pipeline must be one of: %s (got %r)"
                      % (", ".join(PIPELINES), pipeline))
    if exp["output_dir"] is None:
        errors.append("experiment.output_dir is required")
    train, heldout, test = corpus["train"], corpus["heldout"], corpus["test"]
    if not train:
        errors.append("corpus.train is required")
    if pipeline in ("hmm-four-way", "sr-joint-vs-cond") and not heldout:
        errors.append("corpus.heldout is required for pipeline %r" % pipeline)
    if not test:
        errors.append("corpus.test is required")
    if check_paths:
        for name, p in (("train", train), ("heldout", heldout), ("test", test)):
            if p and not os.path.exists(p):
                errors.append("corpus.%s path does not exist: %s" % (name, p))
    cfg = None
    try:
        cfg = ExperimentConfig(
            pipeline=pipeline, train=train, heldout=heldout, test=test,
            output_dir=exp["output_dir"], seed=int(exp["seed"]),
            ascent=AscentConfig(
                max_iters=int(pcfg_sec["max_iters"]),
                tol=float(pcfg_sec["tol"]),
                initial_step=float(pcfg_sec["initial_step"]),
                line_search_shrink=float(pcfg_sec["line_search_shrink"])),
            beam_thresholds=tuple(
                float(x) for x in beam_sec["thresholds"].split()),
            observed_pair_filter=_parse_bool(beam_sec["observed_pair_filter"]),
            bootstrap_iterations=int(c["bootstrap"]["iterations"]),
            head_rules=c["treebank"]["head_rules"])
    except (ValueError, ConfigError) as e:
        errors.append(str(e))
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def validate_config(path):
    """List of diagnostics for a config file; empty means valid."""
    try:
        load_config(path)
    except ConfigError as e:
        return str(e).split("\n")
    return []


# ---------------------------------------------------------------------------
# File helpers.

def _read_trees(path):
    with open(path, encoding="utf-8") as f:
        return trees.read_bracketed(f.read())


def _read_sentences(path):
    with open(path, encoding="utf-8") as f:
        return [line.split() for line in f if line.strip()]


def _read_tagged(path):
    with open(path, encoding="utf-8") as f:
        return hmm.read_tagged(f.read())


def _write_predictions(pred, path):
    """One line per sentence; failed parses become empty lines."""
    with open(path, "w", encoding="utf-8") as f:
        for t in pred:
            f.write(("" if t is None else trees.write_tree(t)) + "\n")


def _read_predictions(path):
    with open(path, encoding="utf-8") as f:
        lines = [line.strip() for line in f]
    return [trees.parse_trees(line)[0] if line else None for line in lines]


def _tag(sentences, model, source, path, what=""):
    """Decode each sentence and write ``word_tag`` lines to ``path``.  A
    TaggingError names ``source``, the sentence's number and ``what``."""
    pred = []
    for i, words in enumerate(sentences, 1):
        try:
            pred.append(model.posterior_decode(words))
        except hmm.TaggingError as e:
            raise hmm.TaggingError("%s: sentence %d%s: %s"
                                   % (source, i, what, e)) from e
    with open(path, "w", encoding="utf-8") as f:
        f.write(hmm.write_tagged(zip(sentences, pred)))
    return pred


def _head_rules(path):
    return trees.HeadRules.from_file(path) if path else trees.HeadRules()


def _fmt(x):
    return "%.6f" % x


# ---------------------------------------------------------------------------
# Pipelines.

def _pipeline_pcfg(cfg, out):
    train = _read_trees(cfg.train)
    test = _read_trees(cfg.test)
    counts = pcfg.extract_counts(train)
    mle = pcfg.estimate_mle(counts)
    trace = []
    mcle = pcfg.estimate_mcle(train, mle, cfg.ascent, trace=trace)
    pcfg.save_grammar(mle, os.path.join(out, "mle.gram"))
    pcfg.save_grammar(mcle, os.path.join(out, "mcle.gram"))

    rows = []
    preds = {}
    stats = {}
    for name, g in (("MLE", mle), ("MCLE", mcle)):
        tlp, marg, _ = pcfg.corpus_stats(g, train)
        stats[name] = (-tlp, -(tlp - marg), -marg)
        pred = [pcfg.viterbi_parse(g, trees.tree_yield(t)) for t in test]
        preds[name] = pred
        _write_predictions(pred, os.path.join(out, "pred_%s.mrg" % name.lower()))
    for i, metric in enumerate(("-logP(y)", "-logP(y|x)", "-logP(x)")):
        rows.append((metric, _fmt(stats["MLE"][i]), _fmt(stats["MCLE"][i])))
    reports = {name: evaluation.score_corpus(list(test), preds[name])
               for name in ("MLE", "MCLE")}
    for metric, attr in (("labelled_precision", "precision"),
                         ("labelled_recall", "recall"),
                         ("labelled_f", "f_score")):
        rows.append((metric, _fmt(getattr(reports["MLE"], attr)),
                     _fmt(getattr(reports["MCLE"], attr))))
    boot = evaluation.bootstrap_test(list(test), preds["MLE"], preds["MCLE"],
                                     iterations=cfg.bootstrap_iterations,
                                     seed=cfg.seed)
    lines = ["metric\tMLE\tMCLE"]
    lines += ["\t".join(r) for r in rows]
    lines.append("bootstrap_p(MLE-MCLE)\t%s\t(observed dF=%s)"
                 % (_fmt(boot.p_value), _fmt(boot.observed_delta_f)))
    with open(os.path.join(out, "report.tsv"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    with open(os.path.join(out, "cll_trace.txt"), "w", encoding="utf-8") as f:
        for v in trace:
            f.write("%.12f\n" % v)


def _pipeline_hmm(cfg, out):
    train = _read_tagged(cfg.train)
    heldout = _read_tagged(cfg.heldout)
    test = _read_tagged(cfg.test)
    sentences, gold = [w for w, _t in test], [t for _w, t in test]
    lines = ["variant\taccuracy"]
    for variant in hmm.VARIANTS:
        model = hmm.TaggerModel.train(variant, train, heldout)
        hmm.save_tagger(model, os.path.join(out, "tagger_%s.txt" % variant))
        pred = _tag(sentences, model, cfg.test, os.path.join(
            out, "tags_%s.txt" % variant), " (variant %s)" % variant)
        acc = hmm.tagging_accuracy(pred, gold)
        lines.append("%s\t%s" % (variant, _fmt(acc)))
    with open(os.path.join(out, "report.tsv"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _pipeline_sr(cfg, out):
    rules = _head_rules(cfg.head_rules)
    train = _read_trees(cfg.train)
    heldout = _read_trees(cfg.heldout)
    test = _read_trees(cfg.test)
    btrain = trees.Corpus([trees.binarize(t, rules) for t in train])
    bheldout = trees.Corpus([trees.binarize(t, rules) for t in heldout])
    sentences = [trees.tree_yield(t) for t in test]
    gold = list(test)

    joint = shiftreduce.estimate_joint(btrain)
    cond = shiftreduce.estimate_conditional(btrain, bheldout)
    shiftreduce.save_sr(joint, os.path.join(out, "sr_joint.txt"))
    shiftreduce.save_sr(cond, os.path.join(out, "sr_cond.txt"))
    baseline = pcfg.estimate_mle(pcfg.extract_counts(btrain))
    pcfg.save_grammar(baseline, os.path.join(out, "pcfg_baseline.gram"))

    lines = ["parser\tbeam\tprecision\trecall\tf\tfailures"]
    for name, model in (("joint", joint), ("conditional", cond)):
        for thr in cfg.beam_thresholds:
            beam = BeamConfig(threshold=thr,
                              require_observed_pairs=cfg.observed_pair_filter)
            pred, failures = shiftreduce.parse_corpus(model, sentences, beam)
            rep = evaluation.score_corpus(gold, pred)
            lines.append("%s\t%g\t%s\t%s\t%s\t%d"
                         % (name, thr, _fmt(rep.precision), _fmt(rep.recall),
                            _fmt(rep.f_score), failures))
            _write_predictions(pred, os.path.join(
                out, "pred_%s_%g.mrg" % (name, thr)))
    pred = [pcfg.viterbi_parse(baseline, words) for words in sentences]
    failures = sum(t is None for t in pred)
    pred = [None if t is None else trees.debinarize(t) for t in pred]
    rep = evaluation.score_corpus(gold, pred)
    lines.append("pcfg\t-\t%s\t%s\t%s\t%d"
                 % (_fmt(rep.precision), _fmt(rep.recall), _fmt(rep.f_score),
                    failures))
    _write_predictions(pred, os.path.join(out, "pred_pcfg.mrg"))
    with open(os.path.join(out, "report.tsv"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def run_pipeline(cfg):
    """Run one experiment pipeline; writes models, predictions and a
    metrics table under the configured output directory.  They are written
    to a scratch directory first and copied there only once the whole
    pipeline has succeeded: a failed run leaves the directory as it was."""
    pipeline = {"pcfg-mle-vs-mcle": _pipeline_pcfg,
                "hmm-four-way": _pipeline_hmm}.get(cfg.pipeline, _pipeline_sr)
    with tempfile.TemporaryDirectory() as scratch:
        pipeline(cfg, scratch)
        shutil.copytree(scratch, cfg.output_dir, dirs_exist_ok=True)
    return 0


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_train_pcfg(args):
    corpus = _read_trees(args.train)
    mle = pcfg.estimate_mle(pcfg.extract_counts(corpus))
    if args.mode == "mle":
        g = mle
    else:
        cfg = AscentConfig(max_iters=args.max_iters, tol=args.tol)
        g = pcfg.estimate_mcle(corpus, mle, cfg)
    pcfg.save_grammar(g, args.output)
    return 0


def _cmd_parse(args):
    g = pcfg.load_grammar(args.grammar)
    pred = [pcfg.viterbi_parse(g, words)
            for words in _read_sentences(args.input)]
    _write_predictions(pred, args.output)
    return 0


def _cmd_train_tagger(args):
    train = _read_tagged(args.train)
    heldout = _read_tagged(args.heldout) if args.heldout else None
    model = hmm.TaggerModel.train(args.variant, train, heldout)
    hmm.save_tagger(model, args.output)
    return 0


def _cmd_tag(args):
    model = hmm.load_tagger(args.model)
    _tag(_read_sentences(args.input), model, args.input, args.output)
    return 0


def _cmd_train_sr(args):
    rules = _head_rules(args.head_rules)
    train = trees.Corpus(
        [trees.binarize(t, rules) for t in _read_trees(args.train)])
    if args.flavor == "joint":
        model = shiftreduce.estimate_joint(train)
    else:
        if not args.heldout:
            raise ConfigError("--flavor cond requires --heldout")
        heldout = trees.Corpus(
            [trees.binarize(t, rules) for t in _read_trees(args.heldout)])
        model = shiftreduce.estimate_conditional(train, heldout)
    shiftreduce.save_sr(model, args.output)
    return 0


def _cmd_parse_sr(args):
    model = shiftreduce.load_sr(args.model)
    cfg = BeamConfig(threshold=args.beam,
                     require_observed_pairs=not args.no_observed_pair_filter)
    pred, failures = shiftreduce.parse_corpus(
        model, _read_sentences(args.input), cfg)
    _write_predictions(pred, args.output)
    if failures:
        print("failed to parse %d sentence(s)" % failures, file=sys.stderr)
    return 0


def _cmd_eval(args):
    gold = list(_read_trees(args.gold))
    pred = _read_predictions(args.pred)
    rep = evaluation.score_corpus(gold, pred)
    print("precision\t%s" % _fmt(rep.precision))
    print("recall\t%s" % _fmt(rep.recall))
    print("f\t%s" % _fmt(rep.f_score))
    print("matched/gold/predicted\t%d/%d/%d"
          % (rep.matched, rep.gold_total, rep.predicted_total))
    return 0


def _cmd_bootstrap(args):
    gold = list(_read_trees(args.gold))
    a = _read_predictions(args.a)
    b = _read_predictions(args.b)
    res = evaluation.bootstrap_test(gold, a, b, iterations=args.iterations,
                                    seed=args.seed)
    print("p_value\t%s" % _fmt(res.p_value))
    print("observed_delta_f\t%s" % _fmt(res.observed_delta_f))
    return 0


def _cmd_experiment(args):
    try:
        cfg = load_config(args.config)
    except ConfigError as e:
        print(e, file=sys.stderr)   # one diagnostic per line
        return 2
    if args.validate:
        return 0
    if args.seed is not None:
        cfg.seed = args.seed
    if args.output_dir is not None:
        cfg.output_dir = args.output_dir
    return run_pipeline(cfg)


def build_parser():
    p = argparse.ArgumentParser(
        prog="condest",
        description="Joint vs conditional likelihood estimation lab for "
                    "PCFGs, bitag taggers and shift-reduce parsers.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train-pcfg")
    sp.add_argument("--train", required=True)
    sp.add_argument("--mode", choices=("mle", "mcle"), default="mle")
    sp.add_argument("--max-iters", type=int, default=200)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_train_pcfg)

    sp = sub.add_parser("parse")
    sp.add_argument("--grammar", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_parse)

    sp = sub.add_parser("train-tagger")
    sp.add_argument("--train", required=True)
    sp.add_argument("--heldout")
    sp.add_argument("--variant", choices=hmm.VARIANTS, default="joint")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_train_tagger)

    sp = sub.add_parser("tag")
    sp.add_argument("--model", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_tag)

    sp = sub.add_parser("train-sr")
    sp.add_argument("--train", required=True)
    sp.add_argument("--heldout")
    sp.add_argument("--flavor", choices=("joint", "cond"), default="joint")
    sp.add_argument("--head-rules")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_train_sr)

    sp = sub.add_parser("parse-sr")
    sp.add_argument("--model", required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--beam", type=float, default=1e-6)
    sp.add_argument("--no-observed-pair-filter", action="store_true")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_parse_sr)

    sp = sub.add_parser("eval")
    sp.add_argument("--gold", required=True)
    sp.add_argument("--pred", required=True)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("bootstrap")
    sp.add_argument("--gold", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--iterations", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_bootstrap)

    sp = sub.add_parser("experiment")
    sp.add_argument("config")
    sp.add_argument("--validate", action="store_true")
    sp.add_argument("--output-dir")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=_cmd_experiment)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except DATA_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
