"""Timers and tracing around calls into the ``condest`` layers.

Everything here lives in the benchmark: the program is not edited.  A probe
replaces a function where callers look it up at call time.  Module-level
functions are replaced in every ``condest`` module that binds the same
object, which covers both ``pcfg.viterbi_parse(...)`` attribute lookups and
names bound by ``from .interp import fit_interpolation`` in ``hmm`` and
``shiftreduce``.  Methods are replaced on their class.

``StageClock`` wraps the few estimation and decode entry points and is on in
every run.  ``Tracer`` adds spans at every layer boundary plus counters on
the hot leaf functions, and is on only for traced jobs.
"""

import importlib
import time
import weakref

MODULES = ("trees", "interp", "pcfg", "hmm", "shiftreduce", "evaluation",
           "toydata", "cli")


def _modules():
    return [importlib.import_module("condest." + m) for m in MODULES]


def _resolve(target):
    """("pcfg.viterbi_parse") -> (owner, attr, is_method)."""
    parts = target.split(".")
    owner = importlib.import_module("condest." + parts[0])
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1], isinstance(owner, type)


class Patcher:
    """Replaces functions and puts the originals back."""

    def __init__(self):
        self._undo = []

    def wrap(self, target, make):
        """Replace ``target`` by ``make(original_function)``."""
        owner, attr, is_method = _resolve(target)
        if is_method:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            return
        old = getattr(owner, attr)
        new = make(old)
        for mod in _modules():
            for name, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, name, new)
                    self._undo.append((mod, name, old))

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# Host speed.  On a shared host a core's speed drifts by a third over
# tens of seconds (other tenants, frequency), in CPU time as in wall time,
# so a slow spell can cover most of a run.  HostProbe times a fixed loop
# that shares no code with ``condest`` between calls (StageClock), and
# each stretch of time between two probes is multiplied by
# REFERENCE_PROBE_S over their mean, which gives seconds at the host speed
# where the loop takes REFERENCE_PROBE_S.  The loop does what the program
# mostly does, tuple hashing, dict lookups and float arithmetic, over a
# table larger than the caches (about 40 MB): on a 2-core host, scaled by
# it, the decode time of one tagger test set across 25 s windows spread
# 5.5% (IQR/median) where the unscaled time spread 26%, a loop of integer
# arithmetic 10%, and the same loop over a cache-sized table 14%.
PROBE_ENTRIES = 200000
PROBE_STRIDE = 7
PROBE_REPEATS = 3
PROBE_EVERY_S = 0.5
REFERENCE_PROBE_S = 0.009


class HostProbe:
    """Calling it returns the fastest of a few timings of the loop, in s."""

    def __init__(self):
        n = PROBE_ENTRIES
        self._table = {(i, i * 2654435761 % 1000003): i * 0.5
                       for i in range(n)}
        keys = list(self._table)
        # a stride through the table that jumps across memory
        self._keys = [keys[j * 7919 % n] for j in range(0, n, PROBE_STRIDE)]

    def __call__(self):
        table, keys = self._table, self._keys
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            s = 0.0
            for k in keys:
                s += table[k] * 0.5
            best = min(best, time.perf_counter() - t0)
        return best


def scale(seconds, probe_s):
    """A time measured when the probe took ``probe_s``, at the reference
    host speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


TRAIN_TARGETS = ("pcfg.extract_counts", "pcfg.estimate_mle",
                 "pcfg.estimate_mcle", "hmm.TaggerModel.train",
                 "shiftreduce.estimate_joint",
                 "shiftreduce.estimate_conditional")
# The input words are the second positional argument of each decode entry
# point (after the grammar, the move model, or the tagger's self).
DECODE_TARGETS = ("pcfg.viterbi_parse", "hmm.TaggerModel.posterior_decode",
                  "shiftreduce.beam_parse")
# Calls inside the long estimation calls where the host probe may also run,
# so that the speed is measured during them and not only around them.
PROBE_POINTS = ("pcfg.inside_outside", "hmm.collect_tables",
                "hmm.fit_deleted_interpolation", "interp.fit_mixture_weights")


class StageClock:
    """Start and end of each estimation and each decode call, in call
    order, and the host speed while they ran.

    A decode fails when it returns None (no parse) or raises, as the
    tagger's ``TaggingError`` does; the error reaches the caller unchanged.
    With ``host_probe`` set and probing on, the probe runs at the start of
    a call or at a PROBE_POINTS call whenever PROBE_EVERY_S have passed
    since the last probe, and once more in ``finish``.  ``measure`` then
    times an interval without the probes in it, and scales each stretch
    between two probes by the mean of the two.
    """

    def __init__(self):
        self._patcher = Patcher()
        self._depth = 0
        self.host_probe = None
        self.reset()
        for t in TRAIN_TARGETS:
            self._patcher.wrap(t, self._train)
        for t in DECODE_TARGETS:
            self._patcher.wrap(t, self._decode)
        for t in PROBE_POINTS:
            self._patcher.wrap(t, self._probe_point)

    def reset(self, probing=False):
        self.train_spans = []
        self.decode_spans = []
        self.tokens = 0
        self.attempted = 0
        self.failed = 0
        self._probes = []   # [start, end, probe seconds]
        self._probing = probing and self.host_probe is not None
        if self._probing:
            self._probe()

    def _probe(self):
        t0 = time.perf_counter()
        value = self.host_probe()
        self._probes.append((t0, time.perf_counter(), value))

    def _maybe_probe(self):
        if (self._probing and time.perf_counter() - self._probes[-1][1]
                >= PROBE_EVERY_S):
            self._probe()

    def finish(self):
        """Take the last probe; returns the mean probe, or None."""
        if not self._probing:
            return None
        self._probe()
        return sum(p[2] for p in self._probes) / len(self._probes)

    def measure(self, start, end):
        """(seconds, scaled seconds or None) in [start, end], probes left
        out."""
        p = self._probes
        if len(p) < 2:
            return end - start, None
        raw = scaled = 0.0
        for (_, a_end, a), (b_start, _, b) in zip(p, p[1:]):
            dt = min(end, b_start) - max(start, a_end)
            if dt > 0:
                raw += dt
                scaled += scale(dt, (a + b) / 2)
        return raw, scaled

    def _probe_point(self, fn):
        clock = self

        def probed(*a, **k):
            clock._maybe_probe()
            return fn(*a, **k)
        return probed

    def _train(self, fn):
        clock = self

        def timed(*a, **k):
            if clock._depth:
                return fn(*a, **k)
            clock._maybe_probe()
            clock._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                clock.train_spans.append((t0, time.perf_counter()))
                clock._depth -= 1
        return timed

    def _decode(self, fn):
        clock = self

        def timed(*a, **k):
            if clock._depth:
                return fn(*a, **k)
            clock._maybe_probe()
            clock._depth += 1
            failed = True
            t0 = time.perf_counter()
            try:
                out = fn(*a, **k)
                failed = out is None
                return out
            finally:
                clock.decode_spans.append((t0, time.perf_counter()))
                clock._depth -= 1
                clock.tokens += len(a[1])
                clock.attempted += 1
                clock.failed += failed
        return timed

    def close(self):
        self._patcher.restore()


# ---------------------------------------------------------------------------
# Tracing.

def _rule_splits_factor(cache, g):
    """Factored binary rules of a grammar: a rule with r > 1 right-hand
    symbols becomes r - 1 binary rules."""
    v = cache.get(g)
    if v is None:
        v = sum(len(r.rhs) - 1 for r in g.theta if len(r.rhs) > 1)
        cache[g] = v
    return v


def _splits(n):
    return (n ** 3 - n) // 6


class Tracer:
    """Spans [name, start, end, parent index] kept in memory, plus counters.

    The functions in COUNTS only bump a call counter, without a span,
    because they run up to millions of times per job.  An estimate_mcle
    span carries its training-tree count as a fifth field.
    """

    SPANS = ("trees.read_bracketed", "trees.binarize", "trees.debinarize",
             "interp.fit_interpolation", "interp.fit_mixture_weights",
             "pcfg.inside_outside", "pcfg.estimate_mcle",
             "pcfg.viterbi_parse", "hmm.collect_tables",
             "hmm.fit_deleted_interpolation", "hmm.posterior_decode",
             "shiftreduce.estimate_joint", "shiftreduce.estimate_conditional",
             "shiftreduce.beam_parse", "evaluation.score_corpus",
             "evaluation.bootstrap_test", "cli.experiment")
    COUNTS = ("pcfg.tree_log_prob", "hmm.edge_weight",
              "shiftreduce.move_probs")
    # Span or counter name -> where the function lives, when they differ.
    TARGETS = {"hmm.posterior_decode": "hmm.TaggerModel.posterior_decode",
               "hmm.edge_weight": "hmm.TaggerModel.edge_weight",
               "shiftreduce.move_probs": "shiftreduce.MoveModel.move_probs",
               "cli.experiment": "cli.run_pipeline"}
    # The treebank transforms recurse through their own module-level names;
    # only the outermost call gets a span.
    NON_REENTRANT = ("trees.binarize", "trees.debinarize")

    def __init__(self):
        from condest.hmm import TaggingError
        self._tagging_error = TaggingError
        self._patcher = Patcher()
        self._grammar_factor = weakref.WeakKeyDictionary()
        self.spans = []
        self.counts = {}
        self._stack = []
        self._active = set()

    def install(self):
        for name in self.SPANS:
            self._patcher.wrap(self.TARGETS.get(name, name),
                               self._span_maker(name))
        for name in self.COUNTS:
            self._patcher.wrap(self.TARGETS.get(name, name),
                               self._count_maker(name))

    def uninstall(self):
        self._patcher.restore()

    def take(self):
        """Spans and counters recorded since the last call."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _count_maker(self, name):
        tracer = self
        key = name + ".calls"

        def make(fn):
            def counted(*a, **k):
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
                return fn(*a, **k)
            return counted
        return make

    def _span_maker(self, name):
        tracer = self
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        reentrant = name not in self.NON_REENTRANT

        def make(fn):
            def spanned(*a, **k):
                if not reentrant and name in tracer._active:
                    return fn(*a, **k)
                label = name
                if name == "cli.experiment":
                    label = "cli.experiment." + a[0].pipeline
                parent = tracer._stack[-1] if tracer._stack else -1
                idx = len(tracer.spans)
                rec = [label, 0.0, 0.0, parent]
                tracer.spans.append(rec)
                tracer._stack.append(idx)
                tracer._active.add(name)
                out = exc = None
                rec[1] = time.perf_counter()
                try:
                    out = fn(*a, **k)
                    return out
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    rec[2] = time.perf_counter()
                    tracer._stack.pop()
                    tracer._active.discard(name)
                    if hook is not None:
                        hook(idx, a, k, out, exc)
            return spanned
        return make

    # Counters computed from each call's arguments and result.

    def _after_pcfg_inside_outside(self, idx, a, k, out, exc):
        g, x = a[0], a[1]
        n = len(x)
        self.bump("pcfg.inside_outside.tokens", n)
        self.bump("pcfg.inside_outside.rule_splits",
                  _rule_splits_factor(self._grammar_factor, g) * _splits(n))

    def _after_pcfg_viterbi_parse(self, idx, a, k, out, exc):
        g, x = a[0], a[1]
        self.bump("pcfg.viterbi_parse.rule_splits",
                  _rule_splits_factor(self._grammar_factor, g)
                  * _splits(len(x)))

    def _after_pcfg_estimate_mcle(self, idx, a, k, out, exc):
        trace = k.get("trace")
        if trace is not None:
            self.bump("pcfg.mcle.iters", max(0, len(trace) - 1))
        self.spans[idx].append(len(a[0]))

    def _after_interp_fit_mixture_weights(self, idx, a, k, out, exc):
        events = len(a[0])
        iters = len(out[1]) if out is not None else 0
        self.bump("interp.fit_mixture_weights.events", events)
        self.bump("interp.fit_mixture_weights.iters", iters)
        self.bump("interp.fit_mixture_weights.event_iters", events * iters)

    def _after_hmm_posterior_decode(self, idx, a, k, out, exc):
        self.bump("hmm.posterior_decode.tokens", len(a[1]))
        self.bump("hmm.decode_errors", isinstance(exc, self._tagging_error))

    def _after_shiftreduce_beam_parse(self, idx, a, k, out, exc):
        cfg = a[2] if len(a) > 2 else k.get("cfg")
        thr = cfg.threshold if cfg is not None else 1e-6
        self.spans[idx][0] = "shiftreduce.beam_parse.thr-%g" % thr
        self.bump("shiftreduce.beam_parse.tokens", len(a[1]))
        self.bump("shiftreduce.beam_parse.failures",
                  out is None and exc is None)

    def _after_evaluation_bootstrap_test(self, idx, a, k, out, exc):
        if out is not None:
            self.bump("evaluation.bootstrap_test.iterations", out.iterations)


def span_totals(spans):
    """{base name: [inclusive s, self s, calls]} and the MCLE corpus-pass
    count (inside_outside calls under estimate_mcle / training trees)."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    totals = {}
    for i, rec in enumerate(spans):
        dur = rec[2] - rec[1]
        for name in _names(rec[0]):
            t = totals.setdefault(name, [0.0, 0.0, 0])
            t[0] += dur
            t[1] += dur - child[i]
            t[2] += 1
    under_mcle = {}
    for rec in spans:
        if rec[0] != "pcfg.inside_outside":
            continue
        p = rec[3]
        while p >= 0 and spans[p][0] != "pcfg.estimate_mcle":
            p = spans[p][3]
        if p >= 0:
            under_mcle[p] = under_mcle.get(p, 0) + 1
    passes = sum(n / spans[p][4] for p, n in under_mcle.items()
                 if len(spans[p]) > 4 and spans[p][4])
    return totals, passes


def _names(label):
    """A threshold-tagged beam span also counts toward the beam total."""
    if label.startswith("shiftreduce.beam_parse.thr-"):
        return (label, "shiftreduce.beam_parse")
    return (label,)


def layer_metrics(totals, counts, passes):
    """The per-layer metrics of one traced job, by name."""
    def s(name):
        return totals.get(name, (0.0, 0.0, 0))[0]

    def self_s(name):
        return totals.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    def c(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    m = {}
    io = "pcfg.inside_outside"
    m[io + ".self_s"] = self_s(io)
    m[io + ".calls"] = calls(io)
    m[io + ".tokens"] = c(io + ".tokens")
    m[io + ".rule_splits"] = c(io + ".rule_splits")
    m[io + ".ns_per_rule_split"] = ratio(self_s(io) * 1e9,
                                         c(io + ".rule_splits"))
    m["pcfg.estimate_mcle.self_s"] = self_s("pcfg.estimate_mcle")
    m["pcfg.mcle.iters"] = c("pcfg.mcle.iters")
    m["pcfg.mcle.corpus_passes"] = passes
    m["pcfg.mcle.accept_ratio"] = ratio(c("pcfg.mcle.iters"), passes - 1)
    m["pcfg.tree_log_prob.calls"] = c("pcfg.tree_log_prob.calls")
    vp = "pcfg.viterbi_parse"
    m[vp + ".self_s"] = self_s(vp)
    m[vp + ".calls"] = calls(vp)
    m[vp + ".rule_splits"] = c(vp + ".rule_splits")
    m["interp.fit_interpolation.self_s"] = self_s("interp.fit_interpolation")
    fm = "interp.fit_mixture_weights"
    m[fm + ".self_s"] = self_s(fm)
    m[fm + ".calls"] = calls(fm)
    m[fm + ".events"] = c(fm + ".events")
    m[fm + ".iters"] = c(fm + ".iters")
    m[fm + ".ns_per_event_iter"] = ratio(self_s(fm) * 1e9,
                                         c(fm + ".event_iters"))
    m["hmm.collect_tables.s"] = s("hmm.collect_tables")
    m["hmm.fit_deleted_interpolation.s"] = s("hmm.fit_deleted_interpolation")
    pd = "hmm.posterior_decode"
    m[pd + ".self_s"] = self_s(pd)
    m[pd + ".calls"] = calls(pd)
    m[pd + ".tokens"] = c(pd + ".tokens")
    m["hmm.edge_weight.calls"] = c("hmm.edge_weight.calls")
    m["hmm.edge_weight.per_token"] = ratio(c("hmm.edge_weight.calls"),
                                           c(pd + ".tokens"))
    m["hmm.decode_errors"] = c("hmm.decode_errors")
    m["shiftreduce.estimate_joint.s"] = s("shiftreduce.estimate_joint")
    m["shiftreduce.estimate_conditional.self_s"] = self_s(
        "shiftreduce.estimate_conditional")
    bp = "shiftreduce.beam_parse"
    m[bp + ".self_s"] = self_s(bp)
    m[bp + ".thr-1e-6.s"] = s(bp + ".thr-1e-06")
    m[bp + ".thr-1e-9.s"] = s(bp + ".thr-1e-09")
    m[bp + ".calls"] = calls(bp)
    m[bp + ".tokens"] = c(bp + ".tokens")
    m[bp + ".failures"] = c(bp + ".failures")
    m["shiftreduce.move_probs.calls"] = c("shiftreduce.move_probs.calls")
    m["shiftreduce.move_probs.per_token"] = ratio(
        c("shiftreduce.move_probs.calls"), c(bp + ".tokens"))
    for name in ("trees.read_bracketed", "trees.binarize", "trees.debinarize",
                 "evaluation.score_corpus", "evaluation.bootstrap_test"):
        m[name + ".s"] = s(name)
    bt = "evaluation.bootstrap_test"
    m[bt + ".iterations"] = c(bt + ".iterations")
    m[bt + ".us_per_iter"] = ratio(s(bt) * 1e6, c(bt + ".iterations"))
    for p in ("pcfg-mle-vs-mcle", "hmm-four-way", "sr-joint-vs-cond"):
        m["cli.experiment.%s.s" % p] = s("cli.experiment." + p)
    return m


def fired(totals, counts):
    """Names of the spans and counters that fired at least once."""
    out = {name for name, t in totals.items() if t[2] > 0}
    out.update(key[:-len(".calls")] for key, v in counts.items()
               if key.endswith(".calls") and v > 0)
    return out
