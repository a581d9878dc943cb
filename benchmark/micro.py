"""Layer microbenchmarks: ``glm.fit_laplace`` at the shipped shapes and
``datagen.substream`` per call, each checked against the stored reference.

The fit datasets are stored in ``reference/micro.json`` (arm index and
response per subject), so a change to data generation cannot change what
the fit benchmark times.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

import numpy as np

import pipeline
from pipeline import mamsim
from workloads import REFERENCE_DIR

MODE_TOL = 1e-10
DATA_SEED = 20241002
SUBSTREAM_LABELS = ("look", 3, "response")
# metric name -> (design, subjects)
FIT_CASES = {
    "glm.fit_us_binomial_n216_p6": ("orr_six_arm_alternative", 216),
    "glm.fit_us_nbinomial_n260_p4": ("count_dose_finding", 260),
}
BATCHES = 7


def _model(design):
    spec = pipeline.load_spec(design, 0).spec
    return spec, spec.model


def _design_matrix(arm_index, p):
    x = np.zeros((len(arm_index), p))
    x[:, 0] = 1.0
    rows = np.flatnonzero(np.asarray(arm_index) > 0)
    x[rows, np.asarray(arm_index)[rows]] = 1.0
    return x


def _fit(case):
    _, model = _model(case["design"])
    x = _design_matrix(case["arm_index"], len(model.arm_names))
    return lambda: mamsim.glm.fit_laplace(
        x, case["y"], model.family, model.link, model.nuisance
    )


def _us_per_call(fn, calls):
    """Median over batches of the mean time of one call, in microseconds."""
    fn()
    per_call = []
    for _ in range(BATCHES):
        t0 = perf_counter_ns()
        for _ in range(calls):
            fn()
        per_call.append((perf_counter_ns() - t0) / calls / 1e3)
    return statistics.median(per_call)


def run(directory=REFERENCE_DIR) -> tuple[dict, int, list[str]]:
    """Metrics, attempted checks and failure messages."""
    ref = json.loads((directory / "micro.json").read_text(encoding="utf-8"))
    metrics, failures = {}, []
    for name in FIT_CASES:
        fit = _fit(ref[name])
        mode = fit().mode
        if not np.allclose(mode, ref[name]["mode"], rtol=0.0, atol=MODE_TOL):
            failures.append(f"{name}: mode differs from the reference")
        metrics[name] = (_us_per_call(fit, 40), "us")
    sub = ref["substream"]
    draws = mamsim.datagen.substream(sub["seed"], *SUBSTREAM_LABELS).random(4)
    if draws.tolist() != sub["first_draws"]:
        failures.append("datagen.substream: first draws differ from the reference")
    seeds = iter(range(1, 10**9))
    metrics["datagen.substream_us_microbench"] = (
        _us_per_call(lambda: mamsim.datagen.substream(next(seeds), *SUBSTREAM_LABELS), 400),
        "us",
    )
    return metrics, len(FIT_CASES) + 1, failures


def record() -> None:
    datagen, glm = mamsim.datagen, mamsim.glm
    doc = {}
    for name, (design, n) in FIT_CASES.items():
        spec, model = _model(design)
        labels = datagen.allocate_arms(
            n, spec.prob0, spec.allocation, datagen.substream(DATA_SEED, "bench", "alloc")
        )
        x = glm.design_values(labels, {}, model)
        y = datagen.simulate_response(
            x @ np.asarray(spec.beta_true), model.family, model.link, model.nuisance,
            datagen.substream(DATA_SEED, "bench", "response"),
        )
        case = {
            "design": design,
            "arm_index": [model.arm_names.index(a) for a in labels],
            "y": y.tolist(),
        }
        if not np.array_equal(_design_matrix(case["arm_index"], x.shape[1]), x):
            raise RuntimeError("design matrix layout changed")
        case["mode"] = _fit(case)().mode.tolist()
        doc[name] = case
    doc["substream"] = {
        "seed": DATA_SEED,
        "first_draws": datagen.substream(DATA_SEED, *SUBSTREAM_LABELS).random(4).tolist(),
    }
    (REFERENCE_DIR / "micro.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
