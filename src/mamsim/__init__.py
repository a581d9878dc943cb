"""Simulation engine for Bayesian adaptive multi-arm multi-stage designs.

Workflow: parse and validate a design document (:mod:`mamsim.config`), run
seeded replicates of the adaptive trial (:mod:`mamsim.engine`) in parallel
batches (:mod:`mamsim.montecarlo`), and aggregate operating characteristics
(:mod:`mamsim.report`).  Posteriors come from a Laplace-approximated
Bayesian GLM (:mod:`mamsim.glm`); data generation and adaptation rules live
in :mod:`mamsim.datagen` and :mod:`mamsim.rules`, and the shard record
format in :mod:`mamsim.records`.  ``import mamsim``, design validation and
the report verbs load no numpy: the run path is imported by ``run_batch``.
"""

__version__ = "0.1.0"

from .config import (  # noqa: F401
    ModelSpec,
    SpecError,
    TrialSpec,
    ValidatedSpec,
    parse_spec,
    serialize_spec,
    validate_spec,
)
from .montecarlo import (  # noqa: F401
    BatchResult,
    combine_shards,
    load_shard,
    run_batch,
    save_shard,
)
from .records import TrialResult  # noqa: F401
from .report import emit_plot_data, summarize  # noqa: F401
from .rules import RuleSpec  # noqa: F401

# The run path loads numpy, so ``import mamsim`` leaves it to the first
# ``run_batch``; these names resolve on first use instead.
_RUN_PATH = ("datagen", "engine", "glm")


def __getattr__(name):
    if name in _RUN_PATH:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    if name == "run_trial":
        from .engine import run_trial

        return run_trial
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
