"""Deterministic simulator and analysis toolkit for caching with delayed hits.

``import delayedhits`` loads the model, the closed forms, the policies and
the searches, the k+Z reduction and the trace I/O. The two constructions
of the lower-bound paper, ``adversary`` and ``counterexample`` (and the
``fractions`` module that the adversary's ratio needs), load on first use
of one of their names or of the submodule itself; every name in
``__all__`` resolves as before.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .model import (
    ANTIMONOTONE,
    STANDARD,
    InfeasibleEvictionError,
    ModelParams,
    Simulation,
    SimulationResult,
    VerificationError,
    replay,
    simulate,
)
from .latency import antimonotone_latency, delayed_hits_latency, dominates
from .policies import (
    BeladyPolicy,
    FifoPolicy,
    LruPolicy,
    NeverCachePolicy,
    OptResult,
    Policy,
    SearchBudgetExceeded,
    StaticPolicy,
    brute_force_opt,
    is_hit_sequence_feasible,
    make_policy,
    optimal_hit_sequences,
)
from .reduction import ReductionPolicy, reduction_outer_params, verify_domination
from .traces import random_sequence, read_trace, write_trace

# perfbench/oracles.py calls dh.lru_policy(); this binding stays, outside
# __all__, until that call becomes make_policy("lru")
lru_policy = LruPolicy

# public name -> the submodule that defines it, imported on first access
_LAZY = {
    "AdversaryReport": "adversary",
    "build_adversarial_sequence": "adversary",
    "bursty_segment": "adversary",
    "pure_segment": "adversary",
    "CounterexampleSpec": "counterexample",
    "building_block": "counterexample",
    "counterexample_sequence": "counterexample",
    "verify_nonantimonotonicity": "counterexample",
}

__all__ = [
    "ANTIMONOTONE",
    "STANDARD",
    "AdversaryReport",
    "BeladyPolicy",
    "CounterexampleSpec",
    "FifoPolicy",
    "InfeasibleEvictionError",
    "LruPolicy",
    "ModelParams",
    "NeverCachePolicy",
    "OptResult",
    "Policy",
    "ReductionPolicy",
    "SearchBudgetExceeded",
    "Simulation",
    "SimulationResult",
    "StaticPolicy",
    "VerificationError",
    "antimonotone_latency",
    "brute_force_opt",
    "build_adversarial_sequence",
    "building_block",
    "bursty_segment",
    "counterexample_sequence",
    "delayed_hits_latency",
    "dominates",
    "is_hit_sequence_feasible",
    "make_policy",
    "optimal_hit_sequences",
    "pure_segment",
    "random_sequence",
    "read_trace",
    "reduction_outer_params",
    "replay",
    "simulate",
    "verify_domination",
    "verify_nonantimonotonicity",
    "write_trace",
]


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
