"""Spans around the calls into each mamsim layer, recorded from outside.

Wrappers replace each layer's public functions under the names their
callers look up: ``engine`` binds ``substream`` with ``from .datagen
import`` and ``montecarlo`` binds ``run_trial`` the same way, so those two
are patched in the calling module.  ``Cohort.concat`` and the dict state of
``run_trial`` stay inside the engine span's self time.

A span is ``[name, start_ns, end_ns, parent_index, seed, info]``; ``seed``
is the replicate the span belongs to (None outside a replicate) and
``info`` holds counts read from the call's result.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns
from types import SimpleNamespace

from pipeline import VERBS
from pipeline import mamsim

_engine, _datagen, _glm, _rules = mamsim.engine, mamsim.datagen, mamsim.glm, mamsim.rules

# (module whose attribute is looked up, attribute, span name, info, seed arg)
PATCHES = (
    (mamsim.montecarlo, "run_trial", "engine.run_trial", lambda r: r.looks_performed, 1),
    (_engine, "substream", "datagen.substream", None, None),
    (_datagen, "allocate_arms", "datagen.allocate_arms", None, None),
    (_datagen, "simulate_covariates", "datagen.simulate_covariates", None, None),
    (_datagen, "simulate_response", "datagen.simulate_response", None, None),
    (_glm, "design_values", "glm.design_values", None, None),
    (_glm, "build_design_matrix", "glm.build_design_matrix", None, None),
    (_glm, "fit_laplace", "glm.fit_laplace", lambda f: [f.iterations, f.converged], None),
    (_glm, "marginal_posterior_prob", "glm.marginal_posterior_prob", None, None),
    (_rules, "efficacy_arm", "rules.efficacy_arm", None, None),
    (_rules, "futility_arm", "rules.futility_arm", None, None),
    (_rules, "trial_stop", "rules.trial_stop", None, None),
    (_rules, "rar_weights", "rules.rar_weights", None, None),
    (_rules, "normalize_allocation", "rules.normalize_allocation", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._seed = None

    def wrap(self, name, fn, info=None, seed_arg=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self._seed, None]
            stack.append(len(spans))
            spans.append(span)
            outer_seed = self._seed
            if seed_arg is not None:
                self._seed = span[4] = int(args[seed_arg])
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                self._seed = outer_seed
            if info is not None:
                span[5] = info(result)
            return result

        return traced

    def api(self) -> SimpleNamespace:
        return SimpleNamespace(**{
            name: self.wrap(f"{mod.__name__.split('.')[-1]}.{name}", getattr(mod, name))
            for name, mod in VERBS.items()
        })

    @contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in PATCHES]
        try:
            for mod, attr, name, info, seed_arg in PATCHES:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), info, seed_arg))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "seed", "info"],\n')
            fh.write(' "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in self.spans))
            fh.write("\n]}\n")


# layer metric -> span names whose self time it sums
SELF_TIME = {
    "datagen.self_ms_per_replicate": (
        "datagen.substream", "datagen.allocate_arms",
        "datagen.simulate_covariates", "datagen.simulate_response",
    ),
    "glm.fit_ms_per_replicate": ("glm.fit_laplace",),
    "glm.design_ms_per_replicate": ("glm.design_values", "glm.build_design_matrix"),
    "glm.tailprob_ms_per_replicate": ("glm.marginal_posterior_prob",),
    "rules.self_ms_per_replicate": (
        "rules.efficacy_arm", "rules.futility_arm", "rules.trial_stop",
        "rules.rar_weights", "rules.normalize_allocation",
    ),
    "engine.self_ms_per_replicate": ("engine.run_trial",),
    "montecarlo.batch_self_ms_per_replicate": ("montecarlo.run_batch",),
    "montecarlo.save_ms_per_replicate": ("montecarlo.save_shard",),
    "montecarlo.load_ms_per_replicate": ("montecarlo.load_shard",),
    "montecarlo.combine_ms_per_replicate": ("montecarlo.combine_shard_files",),
    "report.summarize_ms_per_replicate": ("report.summarize",),
    "report.plot_data_ms_per_replicate": ("report.emit_plot_data",),
}


def nearest_rank(sorted_values, pct: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(spans: list[list], wall_ns: int, reps: int) -> dict:
    """Per-layer metrics of a traced pass as {name: (value, unit)}.

    Self time is a span's duration minus the durations of its children;
    since children nest inside their parent and run one at a time, the
    self times of all spans plus the time outside any span (unattributed)
    add up to ``wall_ns``."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    root_ns = 0
    for s, covered in zip(spans, child_ns):
        duration = s[2] - s[1]
        self_ns[s[0]] = self_ns.get(s[0], 0) + duration - covered
        calls[s[0]] = calls.get(s[0], 0) + 1
        if s[3] < 0:
            root_ns += duration
    per_rep = max(reps, 1)

    def ms(names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6 / per_rep

    def count(name):
        return calls.get(name, 0)

    def us_per_call(name):
        return self_ns.get(name, 0) / 1e3 / count(name) if count(name) else 0.0

    fits = [s[5] for s in spans if s[0] == "glm.fit_laplace"]
    trials = [s for s in spans if s[0] == "engine.run_trial"]
    durations = sorted((s[2] - s[1]) / 1e6 for s in trials)
    # the highest percentile (at most 99) with at least ten replicates above it
    tail = min(99.0, max(50.0, 100.0 * (1 - 10 / len(durations)))) if durations else 0.0
    rules_calls = sum(count(n) for n in SELF_TIME["rules.self_ms_per_replicate"])

    out = {name: (ms(names), "ms") for name, names in SELF_TIME.items()}
    out.update({
        "datagen.substream_calls_per_replicate": (count("datagen.substream") / per_rep, "count"),
        "datagen.substream_us_per_call": (us_per_call("datagen.substream"), "us"),
        "glm.fit_calls_per_replicate": (len(fits) / per_rep, "count"),
        "glm.fit_us_per_call": (us_per_call("glm.fit_laplace"), "us"),
        "glm.newton_iters_per_fit": (
            statistics.fmean(f[0] for f in fits) if fits else 0.0, "count"),
        "glm.fit_converged_share": (
            sum(f[1] for f in fits) / len(fits) if fits else 0.0, "ratio"),
        "glm.tailprob_calls_per_replicate": (
            count("glm.marginal_posterior_prob") / per_rep, "count"),
        "rules.calls_per_replicate": (rules_calls / per_rep, "count"),
        "engine.looks_per_replicate": (
            statistics.fmean(s[5] for s in trials) if trials else 0.0, "count"),
        "engine.replicate_ms_p50": (nearest_rank(durations, 50), "ms"),
        "engine.replicate_ms_p99": (nearest_rank(durations, tail), "ms"),
        "engine.replicate_tail_percentile": (tail, "%"),
        "engine.replicate_samples": (len(durations), "count"),
        "trace.replicates": (reps, "count"),
        "trace.wall_s": (wall_ns / 1e9, "s"),
        "trace.unattributed_ms_per_replicate": ((wall_ns - root_ns) / 1e6 / per_rep, "ms"),
        "trace.spans_per_replicate": (len(spans) / per_rep, "count"),
    })
    return out
