"""Command-line driver: single-step subcommands plus the ``experiment``
pipelines that bind the modules into the three estimation comparisons
(PCFG MLE vs MCLE, the four tagging models, joint vs conditional
shift-reduce parsing).

Exit codes: 0 ok, 1 data error, 2 config error.
"""

import argparse
import os
import re
import shutil
import sys
import tempfile
import types

from . import evaluation, hmm, pcfg, shiftreduce, trees
from .pcfg import AscentConfig
from .shiftreduce import BeamConfig

DATA_ERRORS = (trees.TreebankError, pcfg.EstimationError, hmm.TaggingError,
               shiftreduce.ParserError, evaluation.EvalError,
               OSError, UnicodeDecodeError)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Line-oriented key/value config with [section] headers.  A comment takes a
# whole line; a key appears once per section.

def parse_config_text(text):
    sections = {}
    current = None
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if re.search(r"\s#", line):
            raise ConfigError("line %d: a comment must take a whole line"
                              % lineno)
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value'" % lineno)
        if current is None:
            raise ConfigError("line %d: key outside any [section]" % lineno)
        key, val = (x.strip() for x in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError("line %d: key %s.%s repeated"
                              % (lineno, current, key))
        sections[current][key] = val
    return sections


# Config values: a converter raises ValueError on bad text, or OSError on a
# file it cannot read.

REQUIRED = object()   # the default of a key that must be set


def _pipeline_name(text):
    if text not in PIPELINES:
        raise ValueError("must be one of: %s (got %r)"
                         % (", ".join(PIPELINES), text))
    return text


def _path(text):
    if not os.path.exists(text):
        raise ValueError("path does not exist: %s" % text)
    return text


def _parse_bool(text):
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise ValueError("expected a boolean, got %r" % text)


def _field(cls, name, parse):
    """A key that sets field ``name`` of dataclass ``cls``: the dataclass
    checks the value and holds the default."""
    return (lambda text: getattr(cls(**{name: parse(text)}), name),
            getattr(cls, name))


def _flag(convert):
    """argparse ``type`` for ``convert``: a refused value is a usage error."""
    def parse(text):
        try:
            return convert(text)
        except (ValueError, OSError) as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return parse


_threshold = _field(BeamConfig, "threshold", float)[0]


def _thresholds(text):
    values = tuple(map(_threshold, text.split()))
    if not values:
        raise ValueError("needs at least one threshold")
    return values


def _head_rules_file(text):
    """A head-rules file, read and checked as the pipeline reads it."""
    return trees.HeadRules.from_file(_path(text))


def _corpus(*extra):
    """The [corpus] keys: train, then ``extra``, then test."""
    return {"corpus": {part: (_path, REQUIRED)
                       for part in ("train",) + extra + ("test",)}}


# The [experiment] keys, which every pipeline reads: key -> (converter,
# default).  Each pipeline's own keys are declared with it in PIPELINES.
EXPERIMENT_KEYS = {"pipeline": (_pipeline_name, REQUIRED),
                   "output_dir": (str, REQUIRED),
                   "seed": (lambda text: evaluation.bootstrap_seed(int(text)),
                            0)}


def load_config(path):
    """Load an experiment config: the [experiment] keys and those of its
    pipeline, each converted, defaulted and, if a path, checked to exist.
    Any other section or key is an error; for an unknown pipeline only the
    keys every pipeline reads are checked.  Returns a namespace with one
    attribute per key; raises ConfigError listing every problem found."""
    with open(path, encoding="utf-8") as f:
        given = parse_config_text(f.read())
    name = given.get("experiment", {}).get("pipeline")
    declared = {"experiment": EXPERIMENT_KEYS,
                **(PIPELINES[name][1] if name in PIPELINES else _corpus())}
    errors = []
    for section, values in given.items() if name in PIPELINES else ():
        if section not in declared:
            errors.append("unknown section [%s] for pipeline %s"
                          % (section, name))
        else:
            errors += ["unknown key %s.%s for pipeline %s"
                       % (section, key, name)
                       for key in values if key not in declared[section]]
    cfg = types.SimpleNamespace()
    for section, keys in declared.items():
        for key, (convert, default) in keys.items():
            text = given.get(section, {}).get(key)
            value = default
            if text is None and default is REQUIRED:
                errors.append("%s.%s is required" % (section, key))
            elif text is not None:
                try:
                    value = convert(text)
                except (ValueError, OSError) as e:
                    errors.append("%s.%s: %s" % (section, key, e))
            setattr(cfg, key, value)
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


# ---------------------------------------------------------------------------
# File helpers.

def _read_trees(path):
    with open(path, encoding="utf-8") as f:
        return trees.read_bracketed(f.read())


def _read_sentences(path):
    with open(path, encoding="utf-8") as f:
        return [line.split() for line in f if line.strip()]


def _read_binarized(path, rules):
    return trees.Corpus([trees.binarize(t, rules)
                         for t in _read_trees(path)])


def _read_tagged(path):
    with open(path, encoding="utf-8") as f:
        return hmm.read_tagged(f.read())


def _write_predictions(pred, path):
    """One line per sentence; failed parses become empty lines."""
    with open(path, "w", encoding="utf-8") as f:
        for t in pred:
            f.write(("" if t is None else trees.write_tree(t)) + "\n")


def _read_predictions(path):
    """One tree per line; an empty line is a failed parse (None).  Any
    other line that is not exactly one tree is refused with its number."""
    pred = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            try:
                found = trees.parse_line(line) if line.strip() else [None]
                if len(found) != 1:
                    raise trees.TreebankError("expected one tree, found %d"
                                              % len(found))
            except trees.TreebankError as e:
                raise trees.TreebankError("%s:%d: %s"
                                          % (path, lineno, e)) from e
            pred += found
    return pred


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


def _given(args, *names):
    """The named options that were given on the command line."""
    return {name: getattr(args, name) for name in names if name in args}


def _fmt(x):
    return "%.6f" % x


# ---------------------------------------------------------------------------
# Pipelines: each writes its models and predictions under ``out`` and
# returns the lines of its report.

def _pipeline_pcfg(cfg, out):
    train, test = _read_trees(cfg.train), _read_trees(cfg.test)
    mle = pcfg.estimate_mle(pcfg.extract_counts(train))
    trace = []
    mcle = pcfg.estimate_mcle(train, mle, AscentConfig(
        max_iters=cfg.max_iters, tol=cfg.tol), trace=trace)
    preds, stats = {}, {}
    for name, g in (("MLE", mle), ("MCLE", mcle)):
        pcfg.save_grammar(g, os.path.join(out, "%s.gram" % name.lower()))
        tlp, marg, _ = pcfg.corpus_stats(g, train)
        preds[name] = pred = [pcfg.viterbi_parse(g, trees.tree_yield(t))
                              for t in test]
        _write_predictions(pred, os.path.join(out, "pred_%s.mrg" % name.lower()))
        rep = evaluation.score_corpus(list(test), pred)
        stats[name] = (-tlp, -(tlp - marg), -marg,
                       rep.precision, rep.recall, rep.f_score)
    lines = ["metric\tMLE\tMCLE"]
    for i, metric in enumerate(("-logP(y)", "-logP(y|x)", "-logP(x)",
                                "labelled_precision", "labelled_recall",
                                "labelled_f")):
        lines.append("%s\t%s\t%s" % (metric, _fmt(stats["MLE"][i]),
                                     _fmt(stats["MCLE"][i])))
    boot = evaluation.bootstrap_test(list(test), preds["MLE"], preds["MCLE"],
                                     iterations=cfg.iterations, seed=cfg.seed)
    lines.append("bootstrap_p(MLE-MCLE)\t%s\t(observed dF=%s)"
                 % (_fmt(boot.p_value), _fmt(boot.observed_delta_f)))
    with open(os.path.join(out, "cll_trace.txt"), "w", encoding="utf-8") as f:
        for v in trace:
            f.write("%.12f\n" % v)
    return lines


def _pipeline_hmm(cfg, out):
    train, heldout, test = map(_read_tagged,
                               (cfg.train, cfg.heldout, cfg.test))
    sentences, gold = [w for w, _t in test], [t for _w, t in test]
    lines = ["variant\taccuracy"]
    for variant in hmm.VARIANTS:
        model = hmm.TaggerModel.train(variant, train, heldout)
        hmm.save_tagger(model, os.path.join(out, "tagger_%s.txt" % variant))
        pred = _tag(sentences, model, cfg.test, os.path.join(
            out, "tags_%s.txt" % variant), " (variant %s)" % variant)
        lines.append("%s\t%s" % (variant,
                                  _fmt(hmm.tagging_accuracy(pred, gold))))
    return lines


def _pipeline_sr(cfg, out):
    rules = cfg.head_rules or trees.HeadRules()
    btrain = _read_binarized(cfg.train, rules)
    bheldout = _read_binarized(cfg.heldout, rules)
    gold = list(_read_trees(cfg.test))
    sentences = [trees.tree_yield(t) for t in gold]

    joint = shiftreduce.estimate_joint(btrain)
    cond = shiftreduce.estimate_conditional(btrain, bheldout)
    shiftreduce.save_sr(joint, os.path.join(out, "sr_joint.txt"))
    shiftreduce.save_sr(cond, os.path.join(out, "sr_cond.txt"))
    baseline = pcfg.estimate_mle(pcfg.extract_counts(btrain))
    pcfg.save_grammar(baseline, os.path.join(out, "pcfg_baseline.gram"))

    lines = ["parser\tbeam\tprecision\trecall\tf\tfailures"]

    def report(parser, beam, pred, failures, filename):
        rep = evaluation.score_corpus(gold, pred)
        lines.append("%s\t%s\t%s\t%s\t%s\t%d"
                     % (parser, beam, _fmt(rep.precision), _fmt(rep.recall),
                        _fmt(rep.f_score), failures))
        _write_predictions(pred, os.path.join(out, filename))

    for parser, model in (("joint", joint), ("conditional", cond)):
        for thr in cfg.thresholds:
            beam = BeamConfig(threshold=thr,
                              require_observed_pairs=cfg.observed_pair_filter)
            pred, failures = shiftreduce.parse_corpus(model, sentences, beam)
            report(parser, "%g" % thr, pred, failures,
                   "pred_%s_%g.mrg" % (parser, thr))
    pred = [pcfg.viterbi_parse(baseline, words) for words in sentences]
    failures = sum(t is None for t in pred)
    report("pcfg", "-", [None if t is None else trees.debinarize(t)
                         for t in pred], failures, "pred_pcfg.mrg")
    return lines


# Each pipeline: the function that runs it and the config keys it reads
# besides [experiment], as section -> key -> (converter, default).
PIPELINES = {
    "pcfg-mle-vs-mcle": (_pipeline_pcfg, {
        **_corpus(),
        "pcfg": {"max_iters": _field(AscentConfig, "max_iters", int),
                 "tol": _field(AscentConfig, "tol", float)},
        "bootstrap": {"iterations": (
            lambda text: evaluation.bootstrap_iterations(int(text)), 2000)}}),
    "hmm-four-way": (_pipeline_hmm, _corpus("heldout")),
    "sr-joint-vs-cond": (_pipeline_sr, {
        **_corpus("heldout"),
        "beam": {"thresholds": (_thresholds, (1e-6, 1e-9)),
                 "observed_pair_filter": _field(
                     BeamConfig, "require_observed_pairs", _parse_bool)},
        "treebank": {"head_rules": (_head_rules_file, None)}}),
}


# Each training command's mode option and its modes, the first the
# default, and the options that only some modes read: option -> (converter,
# default, the modes that read it).  A mode needs an option whose default
# is REQUIRED.
TRAINING_MODES = {
    "train-pcfg": ("mode", ("mle", "mcle"), {
        name: (*spec, {"mcle"})
        for name, spec in PIPELINES["pcfg-mle-vs-mcle"][1]["pcfg"].items()}),
    "train-tagger": ("variant", hmm.VARIANTS, {"heldout": (str, REQUIRED, {
        v for v, (mixture, _e) in hmm.VARIANT_FACTORS.items() if mixture})}),
    "train-sr": ("flavor", ("joint", "cond"),
                 {"heldout": (str, REQUIRED, {"cond"})}),
}


def _check_mode(args):
    """Refuse an option that the chosen mode of a training command does
    not read, and require one that it needs, before any file is read."""
    mode, _modes, options = TRAINING_MODES.get(args.command, (None, (), {}))
    for name, (_convert, default, modes) in options.items():
        chosen, flag = getattr(args, mode), "--" + name.replace("_", "-")
        if name in args and chosen not in modes:
            raise ConfigError("%s is not read by --%s %s"
                              % (flag, mode, chosen))
        if name not in args and chosen in modes and default is REQUIRED:
            raise ConfigError("--%s %s requires %s" % (mode, chosen, flag))


def run_pipeline(cfg):
    """Run one experiment pipeline; writes models, predictions and the
    ``report.tsv`` metrics table to a scratch directory, then copies them
    to the configured output directory once the whole pipeline has
    succeeded: a failed run leaves that directory as it was."""
    with tempfile.TemporaryDirectory() as scratch:
        lines = PIPELINES[cfg.pipeline][0](cfg, scratch)
        with open(os.path.join(scratch, "report.tsv"), "w",
                  encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        shutil.copytree(scratch, cfg.output_dir, dirs_exist_ok=True)
    return 0


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_train_pcfg(args):
    corpus = _read_trees(args.train)
    g = pcfg.estimate_mle(pcfg.extract_counts(corpus))
    if args.mode == "mcle":
        g = pcfg.estimate_mcle(corpus, g, AscentConfig(
            **_given(args, "max_iters", "tol")))
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
    heldout = _read_tagged(args.heldout) if "heldout" in args else None
    model = hmm.TaggerModel.train(args.variant, train, heldout)
    hmm.save_tagger(model, args.output)
    return 0


def _cmd_tag(args):
    model = hmm.load_tagger(args.model)
    _tag(_read_sentences(args.input), model, args.input, args.output)
    return 0


def _cmd_train_sr(args):
    rules = args.head_rules or trees.HeadRules()
    train = _read_binarized(args.train, rules)
    if args.flavor == "joint":
        model = shiftreduce.estimate_joint(train)
    else:
        model = shiftreduce.estimate_conditional(
            train, _read_binarized(args.heldout, rules))
    shiftreduce.save_sr(model, args.output)
    return 0


def _cmd_parse_sr(args):
    model = shiftreduce.load_sr(args.model)
    cfg = BeamConfig(require_observed_pairs=not args.no_observed_pair_filter,
                     **_given(args, "threshold"))
    pred, failures = shiftreduce.parse_corpus(
        model, _read_sentences(args.input), cfg)
    _write_predictions(pred, args.output)
    if failures:
        print("failed to parse %d sentence(s)" % failures, file=sys.stderr)
    return 0


def _cmd_eval(args):
    rep = evaluation.score_corpus(_read_trees(args.gold),
                                  _read_predictions(args.pred))
    print("precision\t%s" % _fmt(rep.precision))
    print("recall\t%s" % _fmt(rep.recall))
    print("f\t%s" % _fmt(rep.f_score))
    print("matched/gold/predicted\t%d/%d/%d"
          % (rep.matched, rep.gold_total, rep.predicted_total))
    return 0


def _cmd_bootstrap(args):
    res = evaluation.bootstrap_test(
        _read_trees(args.gold), _read_predictions(args.a),
        _read_predictions(args.b), **_given(args, "iterations", "seed"))
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
    vars(cfg).update(_given(args, "seed", "output_dir"))
    return run_pipeline(cfg)


def build_parser():
    p = argparse.ArgumentParser(
        prog="condest",
        description="Joint vs conditional likelihood estimation lab for "
                    "PCFGs, bitag taggers and shift-reduce parsers.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, *required):
        """A subcommand, its required options and, for a training command,
        its mode option and the options that only some modes read."""
        sp = sub.add_parser(name)
        sp.set_defaults(func=func)
        for flags in required:
            sp.add_argument(*flags.split(), required=True)
        mode, modes, options = TRAINING_MODES.get(name, (None, (), {}))
        if mode:
            sp.add_argument("--" + mode, choices=modes, default=modes[0])
        for option, (convert, _default, _modes) in options.items():
            sp.add_argument("--" + option.replace("_", "-"),
                            type=_flag(convert), default=argparse.SUPPRESS)
        return sp

    # An option whose default is SUPPRESS keeps, when left out, the default
    # of the function or dataclass it is passed to (_given).  An option that
    # sets a config key's value is checked by the key's converter.
    declared = [EXPERIMENT_KEYS] + [keys for _run, sections in
                                    PIPELINES.values()
                                    for keys in sections.values()]
    key = {k: _flag(convert) for keys in declared
           for k, (convert, _) in keys.items()}
    command("train-pcfg", _cmd_train_pcfg, "--train", "-o --output")
    command("parse", _cmd_parse, "--grammar", "--input", "-o --output")
    command("train-tagger", _cmd_train_tagger, "--train", "-o --output")
    command("tag", _cmd_tag, "--model", "--input", "-o --output")
    sp = command("train-sr", _cmd_train_sr, "--train", "-o --output")
    sp.add_argument("--head-rules", type=key["head_rules"])
    sp = command("parse-sr", _cmd_parse_sr, "--model", "--input",
                 "-o --output")
    sp.add_argument("--beam", dest="threshold", type=_flag(_threshold),
                    default=argparse.SUPPRESS)
    sp.add_argument("--no-observed-pair-filter", action="store_true")
    command("eval", _cmd_eval, "--gold", "--pred")
    sp = command("bootstrap", _cmd_bootstrap, "--gold", "--a", "--b")
    sp.add_argument("--iterations", type=key["iterations"],
                    default=argparse.SUPPRESS)
    sp.add_argument("--seed", type=key["seed"], default=argparse.SUPPRESS)
    sp = command("experiment", _cmd_experiment)
    sp.add_argument("config")
    sp.add_argument("--validate", action="store_true")
    sp.add_argument("--output-dir", default=argparse.SUPPRESS)
    sp.add_argument("--seed", type=key["seed"], default=argparse.SUPPRESS)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _check_mode(args)
        return args.func(args)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except DATA_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
