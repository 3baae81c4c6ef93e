"""Every function the benchmark's probes wrap (bench/probes.py) resolves in
``condest``, the wrappers install and come off again, the PCFG layers the
benchmark requires to fire on its PCFG workloads do fire, and the
experiment configs of the bundled workload (bench/jobs.py) validate.  A
rename, a pass that stops calling a traced function by name, or a config
change then fails here instead of in a benchmark run."""

from oracles import bench_module


def _probes():
    return bench_module("probes")


def test_probe_targets_resolve():
    probes = _probes()
    tracer = probes.Tracer
    targets = (probes.TRAIN_TARGETS + probes.DECODE_TARGETS
               + probes.PROBE_POINTS
               + tuple(tracer.TARGETS.get(name, name)
                       for name in tracer.SPANS + tracer.COUNTS))
    for target in targets:
        owner, attr, is_method = probes._resolve(target)
        fn = vars(owner).get(attr) if is_method else getattr(owner, attr, None)
        assert fn is not None, target
        assert callable(getattr(fn, "__func__", fn)), target


def test_probes_install_and_restore():
    from condest import hmm, interp
    probes = _probes()
    before = (hmm.collect_tables, hmm.fit_interpolation,
              interp.fit_mixture_weights, vars(hmm.TaggerModel)["train"])
    clock, tracer = probes.StageClock(), probes.Tracer()
    try:
        tracer.install()
        assert hmm.collect_tables is not before[0]
    finally:
        tracer.uninstall()
        clock.close()
    assert (hmm.collect_tables, hmm.fit_interpolation,
            interp.fit_mixture_weights,
            vars(hmm.TaggerModel)["train"]) == before


def test_pcfg_layers_fire_under_the_tracer():
    from condest import pcfg, toydata
    probes = _probes()
    corpus = toydata.pcfg_train_corpus()
    mle = pcfg.estimate_mle(pcfg.extract_counts(corpus))
    tracer = probes.Tracer()
    tracer.install()
    try:
        pcfg.estimate_mcle(corpus, mle, pcfg.AscentConfig(max_iters=1))
        pcfg.viterbi_parse(mle, ["a", "a"])
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    totals, _ = probes.span_totals(spans)
    assert {"pcfg.tree_log_prob", "pcfg.inside_outside", "pcfg.estimate_mcle",
            "pcfg.viterbi_parse"} <= probes.fired(totals, counts)


def test_bundled_configs_validate(tmp_path):
    from condest import cli, toydata
    data = tmp_path / "data"
    toydata.write_all(str(data))
    configs = bench_module("jobs").bundled_configs(str(data), str(tmp_path))
    assert sorted(configs) == sorted(cli.PIPELINES)
    for path in configs.values():
        assert cli.main(["experiment", path, "--validate"]) == 0, path
