"""Deterministic simulator and analysis toolkit for caching with delayed hits.

``import delayedhits`` loads the model, the policies and the trace I/O,
which every command runs. The rest loads on first use of one of its
names or of the submodule itself: the closed forms (``latency``), the
exhaustive searches (``search``, which loads ``latency``), the k+Z
reduction (``reduction``), and the two constructions of the lower-bound
paper, ``adversary`` and ``counterexample`` (with the ``fractions``
module that the adversary's ratio needs). Every name in ``__all__``
resolves as before.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .model import (
    ANTIMONOTONE,
    STANDARD,
    InfeasibleEvictionError,
    ModelParams,
    SearchBudgetExceeded,
    Simulation,
    SimulationResult,
    VerificationError,
    replay,
    simulate,
)
from .policies import (
    BeladyPolicy,
    FifoPolicy,
    LruPolicy,
    NeverCachePolicy,
    Policy,
    StaticPolicy,
    make_policy,
)
from .traces import random_sequence, read_trace, write_trace

# perfbench/oracles.py calls dh.lru_policy(); this binding stays, outside
# __all__, until that call becomes make_policy("lru")
lru_policy = LruPolicy

# public name -> the submodule that defines it, imported on first access
_LAZY = {
    "antimonotone_latency": "latency",
    "delayed_hits_latency": "latency",
    "dominates": "latency",
    "OptResult": "search",
    "brute_force_opt": "search",
    "is_hit_sequence_feasible": "search",
    "optimal_hit_sequences": "search",
    "ReductionPolicy": "reduction",
    "reduction_outer_params": "reduction",
    "verify_domination": "reduction",
    "AdversaryReport": "adversary",
    "build_adversarial_sequence": "adversary",
    "bursty_segment": "adversary",
    "pure_segment": "adversary",
    "CounterexampleSpec": "counterexample",
    "building_block": "counterexample",
    "counterexample_sequence": "counterexample",
    "verify_nonantimonotonicity": "counterexample",
}

__all__ = sorted([
    "ANTIMONOTONE",
    "STANDARD",
    "InfeasibleEvictionError",
    "ModelParams",
    "SearchBudgetExceeded",
    "Simulation",
    "SimulationResult",
    "VerificationError",
    "replay",
    "simulate",
    "BeladyPolicy",
    "FifoPolicy",
    "LruPolicy",
    "NeverCachePolicy",
    "Policy",
    "StaticPolicy",
    "make_policy",
    "random_sequence",
    "read_trace",
    "write_trace",
    *_LAZY,
])


def __getattr__(name):
    # called only for a name the package does not hold yet (PEP 562)
    if name in _LAZY.values():
        # importing a submodule binds it in the package as well
        return _import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    # the names an eager import would have bound, loaded or not
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
