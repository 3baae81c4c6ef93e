import os

import pytest

from condest import cli, pcfg, toydata
from condest.cli import ConfigError, load_config, parse_config_text
from condest.pcfg import AscentConfig
from condest.shiftreduce import BeamConfig
from condest.trees import write_bracketed


@pytest.fixture
def data_dir(tmp_path):
    d = tmp_path / "data"
    toydata.write_all(str(d))
    return d


def _write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# Config parsing and validation.

CORPORA = {
    "pcfg-mle-vs-mcle": ("pcfg_train.mrg", None, "pcfg_test.mrg"),
    "hmm-four-way": ("hmm_train.tag", "hmm_heldout.tag", "hmm_test.tag"),
    "sr-joint-vs-cond": ("sr_train.mrg", "sr_heldout.mrg", "sr_test.mrg"),
}


def _config(pipeline, data_dir, out, extra=""):
    """A valid config for ``pipeline`` on the bundled corpora, then
    ``extra``."""
    train, heldout, test = CORPORA[pipeline]
    text = ("[experiment]\npipeline = %s\noutput_dir = %s\n[corpus]\n"
            "train = %s\ntest = %s\n"
            % (pipeline, out, data_dir / train, data_dir / test))
    if heldout:
        text += "heldout = %s\n" % (data_dir / heldout)
    return text + extra


def _diagnostics(path):
    with pytest.raises(ConfigError) as e:
        load_config(path)
    return str(e.value).split("\n")


def test_parse_config_text():
    sections = parse_config_text(
        "# comment\n[experiment]\npipeline = pcfg-mle-vs-mcle\n\n"
        "[corpus]\ntrain = x.mrg\n")
    assert sections["experiment"]["pipeline"] == "pcfg-mle-vs-mcle"
    assert sections["corpus"]["train"] == "x.mrg"


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("[a]\nnot-a-pair\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config_text("k = v\n")


def test_inline_comment_and_repeated_key_are_refused(data_dir, tmp_path,
                                                     capsys):
    with pytest.raises(ConfigError, match="line 3: a comment must take"):
        parse_config_text("[a]\nk = v\nout = out   # results\n")
    with pytest.raises(ConfigError, match="line 3: key a.k repeated"):
        parse_config_text("[a]\nk = 5\nk = 50\n")
    # a "#" inside a value is part of it
    assert parse_config_text("[a]\nk = a#b\n") == {"a": {"k": "a#b"}}
    ok = _config("hmm-four-way", data_dir, tmp_path / "out")
    for text in (ok.replace("\n[corpus]", "   # results\n[corpus]"),
                 ok + "train = %s\n" % (data_dir / "hmm_train.tag")):
        cfg = _write(tmp_path / "c.cfg", text)
        assert cli.main(["experiment", cfg, "--validate"]) == 2
        assert "line " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_config_collects_all_errors(tmp_path):
    cfg = _write(tmp_path / "bad.cfg",
                 "[experiment]\npipeline = nonsense\n[corpus]\n"
                 "test = /nonexistent/t.mrg\n")
    diags = _diagnostics(cfg)
    text = "\n".join(diags)
    assert len(diags) >= 4
    assert "pipeline" in text
    assert "output_dir" in text
    assert "train" in text
    assert "does not exist" in text


def test_load_config_valid(data_dir, tmp_path):
    cfg_path = _write(tmp_path / "ok.cfg", _config(
        "pcfg-mle-vs-mcle", data_dir, tmp_path / "out",
        "[pcfg]\nmax_iters = 5\n[bootstrap]\niterations = 50\n"
    ).replace("[corpus]", "seed = 3\n[corpus]"))
    assert cli.main(["experiment", cfg_path, "--validate"]) == 0
    cfg = load_config(cfg_path)
    assert cfg.seed == 3
    assert cfg.max_iters == 5
    assert cfg.tol == AscentConfig.tol
    assert cfg.iterations == 50
    cfg = load_config(_write(tmp_path / "sr.cfg", _config(
        "sr-joint-vs-cond", data_dir, tmp_path / "out")))
    assert cfg.thresholds == (1e-6, 1e-9)
    assert cfg.observed_pair_filter is BeamConfig.require_observed_pairs
    assert cfg.head_rules is None


def test_unknown_section_or_key_is_refused(data_dir, tmp_path, capsys):
    cfg = _write(tmp_path / "typo.cfg", _config(
        "pcfg-mle-vs-mcle", data_dir, tmp_path / "out",
        "[pcfg]\nmax_iter = 5\n[beams]\n"))
    assert _diagnostics(cfg) == [
        "unknown key pcfg.max_iter for pipeline pcfg-mle-vs-mcle",
        "unknown section [beams] for pipeline pcfg-mle-vs-mcle"]
    assert cli.main(["experiment", cfg, "--validate"]) == 2
    assert "unknown key pcfg.max_iter" in capsys.readouterr().err


# For each pipeline, settings that only another pipeline reads.
FOREIGN = {
    "pcfg-mle-vs-mcle": ("[corpus]\nheldout = x\n",
                         "[treebank]\nhead_rules = x\n",
                         "[beam]\nthresholds = 0.5\n"),
    "hmm-four-way": ("[pcfg]\nmax_iters = 5\n", "[beam]\nthresholds = 0.5\n",
                     "[bootstrap]\niterations = 1\n",
                     "[treebank]\nhead_rules = x\n"),
    "sr-joint-vs-cond": ("[pcfg]\ntol = 0.1\n",
                         "[bootstrap]\niterations = 1\n"),
}


@pytest.mark.parametrize("pipeline", sorted(FOREIGN))
def test_key_of_another_pipeline_is_refused(data_dir, tmp_path, capsys,
                                            pipeline):
    assert cli.main(["experiment", _write(tmp_path / "ok.cfg", _config(
        pipeline, data_dir, tmp_path / "out")), "--validate"]) == 0
    for extra in FOREIGN[pipeline]:
        cfg = _write(tmp_path / "c.cfg", _config(
            pipeline, data_dir, tmp_path / "out", extra))
        assert cli.main(["experiment", cfg, "--validate"]) == 2
        assert "for pipeline %s" % pipeline in capsys.readouterr().err


def test_missing_head_rules_exits_2(data_dir, tmp_path, capsys):
    missing = tmp_path / "rules.txt"
    cfg = _write(tmp_path / "sr.cfg", _config(
        "sr-joint-vs-cond", data_dir, tmp_path / "out",
        "[treebank]\nhead_rules = %s\n" % missing))
    assert cli.main(["experiment", cfg, "--validate"]) == 2
    assert capsys.readouterr().err == (
        "treebank.head_rules: path does not exist: %s\n" % missing)
    assert cli.main(["experiment", cfg]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pipeline,extra,diagnostic", [
    ("sr-joint-vs-cond", "[beam]\nthresholds =\n",
     "beam.thresholds: needs at least one threshold"),
    ("pcfg-mle-vs-mcle", "[bootstrap]\niterations = 0\n",
     "bootstrap.iterations: iterations must be >= 1"),
    ("sr-joint-vs-cond", "[treebank]\nhead_rules = RULES\n",
     "treebank.head_rules: head-rules line 1: missing ':'"),
    ("pcfg-mle-vs-mcle", "[experiment]\nseed = -1\n",
     "experiment.seed: seed must be >= 0"),
], ids=["empty-thresholds", "zero-iterations", "malformed-head-rules",
        "negative-seed"])
def test_values_a_run_would_refuse_exit_2(data_dir, tmp_path, capsys,
                                          pipeline, extra, diagnostic):
    """An empty threshold list, no bootstrap iterations, a malformed
    head-rules file and a negative seed fail --validate, and the run, with
    exit 2 and a message naming the key."""
    rules = _write(tmp_path / "rules.txt", "S left NP\n")
    cfg = _write(tmp_path / "c.cfg", _config(
        pipeline, data_dir, tmp_path / "out", extra.replace("RULES", rules)))
    assert cli.main(["experiment", cfg, "--validate"]) == 2
    assert capsys.readouterr().err == diagnostic + "\n"
    assert cli.main(["experiment", cfg]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,flag,diagnostic", [
    ("train-pcfg --mode mcle --max-iters 0", "--max-iters",
     "AscentConfig fields must be positive"),
    ("train-pcfg --mode mcle --tol -1", "--tol",
     "AscentConfig fields must be positive"),
    ("parse-sr --beam 0", "--beam", "threshold must be in (0, 1]"),
    ("parse-sr --beam 2", "--beam", "threshold must be in (0, 1]"),
    ("bootstrap --iterations 0", "--iterations", "iterations must be >= 1"),
    ("train-sr --head-rules RULES", "--head-rules",
     "head-rules line 1: missing ':'"),
    ("train-sr --head-rules MISSING", "--head-rules",
     "path does not exist: MISSING"),
    ("bootstrap --seed -1", "--seed", "seed must be >= 0"),
    ("experiment --seed -1", "--seed", "seed must be >= 0"),
], ids=["max-iters", "tol", "beam-0", "beam-2", "iterations",
        "malformed-head-rules", "missing-head-rules", "bootstrap-seed",
        "experiment-seed"])
def test_bad_flag_value_exits_2(data_dir, tmp_path, capsys, argv, flag,
                                diagnostic):
    """A flag value its config key would refuse is a usage error: exit 2,
    the flag and the key's diagnostic on stderr, no traceback."""
    paths = {"RULES": _write(tmp_path / "rules.txt", "S left NP\n"),
             "MISSING": str(tmp_path / "missing.txt")}
    required = {"train-pcfg": ["--train", str(data_dir / "pcfg_train.mrg")],
                "parse-sr": ["--model", "m", "--input", "i"],
                "bootstrap": ["--gold", "g", "--a", "a", "--b", "b"],
                "experiment": [str(tmp_path / "c.cfg")],
                "train-sr": ["--train", str(data_dir / "sr_train.mrg")]}
    command, *rest = [paths.get(a, a) for a in argv.split()]
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as e:
        cli.main([command, *required[command], *rest]
                 + ([] if command in ("bootstrap", "experiment")
                    else ["-o", out]))
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument %s: %s\n" % (
        flag, diagnostic.replace("MISSING", paths["MISSING"])))
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_bad_values_are_config_errors(data_dir, tmp_path):
    cfg = _write(tmp_path / "bad.cfg", _config(
        "sr-joint-vs-cond", data_dir, tmp_path / "out",
        "[beam]\nthresholds = 1e-6 2\nobserved_pair_filter = maybe\n"
    ).replace("[corpus]", "seed = x\n[corpus]"))
    diags = _diagnostics(cfg)
    assert [d.split(":")[0] for d in diags] == [
        "experiment.seed", "beam.thresholds", "beam.observed_pair_filter"]
    cfg = _write(tmp_path / "bad.cfg", _config(
        "pcfg-mle-vs-mcle", data_dir, tmp_path / "out",
        "[pcfg]\nmax_iters = 0\n"))
    assert _diagnostics(cfg) == [
        "pcfg.max_iters: AscentConfig fields must be positive"]


def _readme():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        return f.read()


def test_readme_config_loads(tmp_path, monkeypatch):
    # the example names the bundled corpora under data/
    monkeypatch.chdir(tmp_path)
    toydata.write_all("data")
    block = _readme().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg_path = _write(tmp_path / "readme.cfg", block)
    assert cli.main(["experiment", cfg_path, "--validate"]) == 0
    cfg = load_config(cfg_path)
    assert cfg.pipeline == "pcfg-mle-vs-mcle"
    assert not hasattr(cfg, "heldout")
    assert not hasattr(cfg, "thresholds")


def test_readme_key_table_matches_declaration():
    """The README's table of config keys names, for each key, the pipelines
    that read it and its default: the same as the declaration."""
    text = _readme().split("| key | pipelines | default |\n", 1)[1]
    table = {}
    for row in text.split("\n")[1:]:
        if not row.startswith("|"):
            break
        key, names, default = (x.strip(" `") for x in row.split("|")[1:4])
        for name in cli.PIPELINES if names == "all" else names.split(", "):
            table[name, key] = default
    declared = {}
    for name, (_run, keys) in cli.PIPELINES.items():
        for section, entries in {"experiment": cli.EXPERIMENT_KEYS,
                                 **keys}.items():
            for key, (convert, default) in entries.items():
                declared[name, "%s.%s" % (section, key)] = (convert, default)
    assert len(declared) == 23
    assert set(table) == set(declared)
    for where, written in table.items():
        convert, default = declared[where]
        if written == "required":
            assert default is cli.REQUIRED, where
        elif written == "none":
            assert default is None, where
        else:
            assert convert(written) == default, where


def test_heldout_required_for_hmm(data_dir, tmp_path):
    text = _config("hmm-four-way", data_dir, tmp_path / "out")
    cfg_path = _write(tmp_path / "h.cfg", text[:text.index("heldout")])
    diags = _diagnostics(cfg_path)
    assert any("heldout" in d for d in diags)


# ---------------------------------------------------------------------------
# Subcommands, exercised through main() for real exit codes.

def test_exit_codes(tmp_path):
    assert cli.main(["experiment", _write(tmp_path / "bad.cfg",
                                          "[experiment]\n")]) == 2
    assert cli.main(["train-pcfg", "--train", "/nonexistent.mrg",
                     "-o", str(tmp_path / "g.gram")]) == 1
    binary = tmp_path / "model.bin"
    binary.write_bytes(b"\xff\xfe[meta]\n")
    assert cli.main(["tag", "--model", str(binary), "--input", str(binary),
                     "-o", str(tmp_path / "t.txt")]) == 1


def test_pcfg_round_trip(data_dir, tmp_path, capsys):
    gram = str(tmp_path / "mle.gram")
    assert cli.main(["train-pcfg", "--train",
                     str(data_dir / "pcfg_train.mrg"), "-o", gram]) == 0
    sents = _write(tmp_path / "sents.txt", "a a\na b\nc b\n")
    pred = str(tmp_path / "pred.mrg")
    assert cli.main(["parse", "--grammar", gram, "--input", sents,
                     "-o", pred]) == 0
    assert len(open(pred).read().splitlines()) == 3
    gold = _write(tmp_path / "gold.mrg",
                  "(S (A a) (A a))\n(S (A a) (B b))\n(S (C c) (B b))\n")
    assert cli.main(["eval", "--gold", gold, "--pred", pred]) == 0
    out = capsys.readouterr().out
    assert "precision" in out and "f\t" in out
    assert cli.main(["bootstrap", "--gold", gold, "--a", pred, "--b", pred,
                     "--iterations", "50"]) == 0
    assert "p_value" in capsys.readouterr().out


def test_bootstrap_on_empty_corpora(tmp_path, capsys):
    empty = _write(tmp_path / "empty.mrg", "")
    assert cli.main(["bootstrap", "--gold", empty, "--a", empty,
                     "--b", empty]) == 1
    assert capsys.readouterr().err == "error: empty corpus\n"


def test_train_pcfg_mcle_mode(data_dir, tmp_path):
    gram = str(tmp_path / "mcle.gram")
    assert cli.main(["train-pcfg", "--train",
                     str(data_dir / "pcfg_train.mrg"), "--mode", "mcle",
                     "--max-iters", "5", "-o", gram]) == 0
    assert pcfg.load_grammar(gram).start == "S"


def test_leaf_that_is_a_label_is_refused(tmp_path, capsys):
    train = _write(tmp_path / "train.mrg", "(S (A a) (B b))\n(S ([ [) (A a))\n")
    for mode in ("mle", "mcle"):
        gram = str(tmp_path / (mode + ".gram"))
        assert cli.main(["train-pcfg", "--train", train, "--mode", mode,
                         "-o", gram]) == 1
        assert capsys.readouterr().err == (
            "error: tree 1: leaf '[' is also a nonterminal label\n")
        assert not os.path.exists(gram)


def test_tagger_round_trip(data_dir, tmp_path):
    model = str(tmp_path / "tagger.txt")
    assert cli.main(["train-tagger", "--train",
                     str(data_dir / "hmm_train.tag"), "--heldout",
                     str(data_dir / "hmm_heldout.tag"), "--variant",
                     "conditional", "-o", model]) == 0
    sents = _write(tmp_path / "sents.txt", "ka li mo\npe ro\n")
    out = str(tmp_path / "tags.txt")
    assert cli.main(["tag", "--model", model, "--input", sents,
                     "-o", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 2
    assert all("_" in tok for tok in lines[0].split())


def test_dead_lattice_names_the_sentence(tmp_path, capsys):
    # "a" is only ever X and "b" only ever Y after Z: "a b" has no tagging
    train = _write(tmp_path / "train.tag", "a_X c_W\nd_Z b_Y\n" * 2)
    test = _write(tmp_path / "test.tag", "a_X c_W\na_X b_Y\n")
    cfg_path = _write(tmp_path / "exp.cfg", """
[experiment]
pipeline = hmm-four-way
output_dir = %s
[corpus]
train = %s
heldout = %s
test = %s
""" % (tmp_path / "out", train, train, test))
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "report.tsv").write_text("an earlier run\n")
    assert cli.main(["experiment", cfg_path]) == 1
    assert capsys.readouterr().err == (
        "error: %s: sentence 2 (variant joint): dead lattice: sentence has "
        "zero probability\n" % test)
    # a failed pipeline writes nothing: the output directory is as it was
    assert os.listdir(tmp_path / "out") == ["report.tsv"]
    assert (tmp_path / "out" / "report.tsv").read_text() == "an earlier run\n"
    model = str(tmp_path / "joint.txt")
    assert cli.main(["train-tagger", "--train", train, "-o", model]) == 0
    sents = _write(tmp_path / "sents.txt", "a c\na b\n")
    assert cli.main(["tag", "--model", model, "--input", sents,
                     "-o", str(tmp_path / "tags.txt")]) == 1
    assert capsys.readouterr().err == (
        "error: %s: sentence 2: dead lattice: sentence has zero "
        "probability\n" % sents)
    assert not (tmp_path / "tags.txt").exists()


def test_sr_round_trip(data_dir, tmp_path):
    model = str(tmp_path / "sr.txt")
    assert cli.main(["train-sr", "--train", str(data_dir / "sr_train.mrg"),
                     "--heldout", str(data_dir / "sr_heldout.mrg"),
                     "--flavor", "cond", "-o", model]) == 0
    sents = _write(tmp_path / "sents.txt", "N V D N\nD N V\n")
    pred = str(tmp_path / "pred.mrg")
    assert cli.main(["parse-sr", "--model", model, "--input", sents,
                     "-o", pred]) == 0
    assert len(open(pred).read().splitlines()) == 2


@pytest.mark.parametrize("argv,diagnostic", [
    ("train-tagger --variant conditional",
     "--variant conditional requires --heldout"),
    ("train-sr --flavor cond", "--flavor cond requires --heldout"),
], ids=["train-tagger", "train-sr"])
def test_missing_heldout_exits_2(data_dir, tmp_path, capsys, argv,
                                 diagnostic):
    """A model that needs heldout data, asked for without it, is a usage
    error in both trainers: exit 2 and the same message."""
    train = {"train-tagger": "hmm_train.tag", "train-sr": "sr_train.mrg"}
    command, *rest = argv.split()
    out = tmp_path / "model.txt"
    assert cli.main([command, "--train", str(data_dir / train[command]),
                     *rest, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % diagnostic
    assert not out.exists()


def test_experiment_validate_only(data_dir, tmp_path):
    cfg_path = _write(tmp_path / "ok.cfg", """
[experiment]
pipeline = hmm-four-way
output_dir = %s
[corpus]
train = %s
heldout = %s
test = %s
""" % (tmp_path / "out", data_dir / "hmm_train.tag",
       data_dir / "hmm_heldout.tag", data_dir / "hmm_test.tag"))
    assert cli.main(["experiment", cfg_path, "--validate"]) == 0
    assert not (tmp_path / "out").exists()


def test_experiment_pcfg_pipeline(tmp_path):
    # tiny corpus keeps the smoke run fast; the bundled-corpus runs live in
    # the acceptance suite
    train = _write(tmp_path / "train.mrg", write_bracketed(
        toydata.pcfg_train_corpus()))
    test = _write(tmp_path / "test.mrg", write_bracketed(
        toydata.pcfg_test_corpus(n=10)))
    out = tmp_path / "out"
    cfg_path = _write(tmp_path / "exp.cfg", """
[experiment]
pipeline = pcfg-mle-vs-mcle
output_dir = %s
[corpus]
train = %s
test = %s
[pcfg]
max_iters = 10
[bootstrap]
iterations = 50
""" % (out, train, test))
    assert cli.main(["experiment", cfg_path]) == 0
    report = (out / "report.tsv").read_text()
    assert report.startswith("metric\tMLE\tMCLE")
    for name in ("mle.gram", "mcle.gram", "pred_mle.mrg", "pred_mcle.mrg",
                 "cll_trace.txt"):
        assert (out / name).exists()
    trace = [float(x) for x in (out / "cll_trace.txt").read_text().split()]
    assert trace == sorted(trace)


# ---------------------------------------------------------------------------
# Malformed model files: exit 1 with path:line, never a traceback.

@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    toydata.write_all(str(d))
    assert cli.main(["train-tagger", "--train", str(d / "hmm_train.tag"),
                     "--heldout", str(d / "hmm_heldout.tag"), "--variant",
                     "conditional", "-o", str(d / "tagger.txt")]) == 0
    assert cli.main(["train-sr", "--train", str(d / "sr_train.mrg"),
                     "--heldout", str(d / "sr_heldout.mrg"), "--flavor",
                     "cond", "-o", str(d / "sr.txt")]) == 0
    assert cli.main(["train-pcfg", "--train", str(d / "pcfg_train.mrg"),
                     "-o", str(d / "grammar.txt")]) == 0
    return d


def _one_field_row(lines):
    i = lines.index("[table:trans]") + 1
    lines[i] = lines[i].split("\t")[0]
    return i + 1


def _row_before_header(lines):
    lines.insert(0, "ka\t1")
    return 1


def _unknown_section(lines):
    i = lines.index("[table:emit]")
    lines.insert(i, "[table:nope]")
    return i + 1


def _repeated_section(lines):
    lines.append("[meta]")
    return len(lines)


def _drop_key(key):
    def edit(lines):
        lines.remove(next(x for x in lines if x.startswith(key + "\t")))
        return lines.index("[meta]") + 1
    return edit


def _bad_count(lines):
    i = lines.index("[joint]") + 1
    lines[i] = lines[i].rsplit("\t", 1)[0] + "\tx"
    return i + 1


def _short_lambda_row(lines):
    i = lines.index("[lambdas:pr0]") + 1
    lines[i] = lines[i].rsplit("\t", 1)[0]
    return i + 1


# A grammar that reads but is not a valid PCFG: the message names the file
# but no line.

def _start_without_rules(lines):
    lines[lines.index("start\tS")] = "start\tQ"


def _weights_off_one(lines):
    i = lines.index("[rules]") + 1
    lines[i] = lines[i].rsplit("\t", 1)[0] + "\t2"


def _unary_cycle(lines):
    lines += ["Q\tR\t1", "R\tQ\t1"]


COMMANDS = {"tagger.txt": "tag --model", "sr.txt": "parse-sr --model",
            "grammar.txt": "parse --grammar"}


@pytest.mark.parametrize("model, edit", [
    ("tagger.txt", _one_field_row),
    ("tagger.txt", _row_before_header),
    ("tagger.txt", _unknown_section),
    ("tagger.txt", _repeated_section),
    ("tagger.txt", _drop_key("variant")),
    ("sr.txt", _drop_key("start")),
    ("sr.txt", _bad_count),
    ("tagger.txt", _short_lambda_row),
    ("grammar.txt", _start_without_rules),
    ("grammar.txt", _weights_off_one),
    ("grammar.txt", _unary_cycle),
], ids=["one-field-row", "row-before-header", "unknown-section",
        "repeated-section", "no-variant", "sr-no-start", "sr-bad-count",
        "short-lambda-row", "start-without-rules", "weights-off-one",
        "unary-cycle"])
def test_malformed_model_exits_1(saved_models, tmp_path, capsys, model, edit):
    lines = (saved_models / model).read_text().split("\n")[:-1]
    lineno = edit(lines)
    bad = _write(tmp_path / model, "".join(x + "\n" for x in lines))
    sents = _write(tmp_path / "sents.txt", "ka li\n")
    assert cli.main(COMMANDS[model].split() + [
        bad, "--input", sents, "-o", str(tmp_path / "out")]) == 1
    where = bad + (":%d:" % lineno if lineno else ": ")
    assert "error: " + where in capsys.readouterr().err
