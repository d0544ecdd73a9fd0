"""Per-layer tracing installed from the benchmark, around the program's calls.

The program is not edited. ``Tracer.install`` wraps every public function
and every public method of a public class defined in the layer modules of
``delayedhits`` and rebinds each module-level name that refers to the
original, so calls made through ``from .model import simulate`` style
imports are seen too. A function a later change removes is simply never
called: its metrics read 0 instead of failing.

Two kinds of record are kept in memory and written out by the caller:

* aggregates for every wrapped function, keyed by (name, parent name):
  calls, inclusive seconds and self seconds (inclusive minus wrapped
  children). The per-step functions run millions of times, so only these
  aggregates exist for them;
* spans (name, start, end, parent span, case id, attributes) for each
  benchmark case, CLI call and command handler, exhaustive search,
  ``simulate`` call and top-level verifier.

``AllocTracer`` is the separate tracemalloc pass: it records the peak
traced allocation inside ``simulate`` and inside the searches, and is
never combined with timing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import tracemalloc

PACKAGE = "delayedhits"
LAYERS = ("model", "policies", "latency", "reduction", "adversary",
          "counterexample", "traces", "cli")
SEARCHES = ("policies.brute_force_opt", "policies.optimal_hit_sequences",
            "policies.is_hit_sequence_feasible")
_SPANNED = frozenset({
    "cli.main", *SEARCHES, "model.simulate", "reduction.verify_domination",
    "adversary.build_adversarial_sequence",
    "counterexample.verify_nonantimonotonicity",
})
ROOT = "-"


def _targets():
    """(metric name, owner, attribute, original) for every public callable."""
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", None, attr, obj
            elif inspect.isclass(obj):
                for method, fn in vars(obj).items():
                    if not method.startswith("_") and inspect.isfunction(fn):
                        yield f"{layer}.{method}", obj, method, fn


def _install(make_wrapper, only=None):
    """Wrap the public callables (or those named in ``only``) in place."""
    modules = [m for name, m in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    for name, cls, attr, fn in list(_targets()):
        if only is not None and name not in only:
            continue
        wrapper = functools.wraps(fn)(make_wrapper(name, fn))
        if cls is not None:
            setattr(cls, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)


def _is_spanned(name):
    return name in _SPANNED or name.startswith("cli.cmd_")


def _arg(args, kwargs, index, name):
    """Argument ``name`` of simulate(params, sequence, policy), however passed."""
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """Timing aggregates, spans and search counters for one traced pass."""

    def __init__(self):
        self.aggregates = {}      # (name, parent) -> [calls, total_s, self_s]
        self.spans = []           # [name, start, end, parent span, case, attrs]
        # needs_decision returning True and request_phase calls inside a
        # search; choose_eviction declines outside one
        self.counters = {"model.needs_decision": 0, "model.request_phase": 0,
                         "policies.choose_eviction": 0}
        self.simulate_runs = []   # (params, sequence, latencies, evictions)
        self._frames = [[ROOT, 0.0]]
        self._span_stack = [None]
        self._case = None
        self._search_depth = [0]

    def install(self):
        _install(self._wrapper)

    @contextlib.contextmanager
    def case(self, case_id, label):
        self._case = case_id
        span = self._open_span("case", {"label": label})
        frame = ["case", 0.0]
        self._frames.append(frame)
        try:
            yield
        finally:
            self._frames.pop()
            self._close_span(span)
            self._case = None

    def _open_span(self, name, attrs=None):
        span = [name, time.perf_counter(), None, self._span_stack[-1], self._case,
                attrs or {}]
        self.spans.append(span)
        self._span_stack.append(len(self.spans) - 1)
        return span

    def _close_span(self, span):
        self._span_stack.pop()
        span[2] = time.perf_counter()

    def _wrapper(self, name, fn):
        if _is_spanned(name):
            return self._coarse_wrapper(name, fn)
        return self._hot_wrapper(name, fn)

    def _record(self, name, parent, frame, start):
        elapsed = time.perf_counter() - start
        parent[1] += elapsed
        key = (name, parent[0])
        record = self.aggregates.get(key)
        if record is None:
            record = self.aggregates[key] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - frame[1]

    def _hot_wrapper(self, name, fn):
        """Aggregates only: the per-step functions run millions of times."""
        frames = self._frames
        aggregates = self.aggregates
        counters = self.counters
        depth = self._search_depth
        clock = time.perf_counter
        counts_nodes = name == "model.needs_decision"
        counts_phases = name == "model.request_phase"
        counts_declines = name == "policies.choose_eviction"

        def wrapper(*args, **kwargs):
            # the clock brackets the bookkeeping too, so each wrapper's own
            # cost lands in its function's self time, not in its caller's
            start = clock()
            parent = frames[-1]
            frame = [name, 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                frames.pop()
            if depth[0]:
                if counts_phases or (counts_nodes and result is True):
                    counters[name] += 1
            elif counts_declines and result == 0:
                counters[name] += 1
            # _record inlined: calling it would cost as much as the bookkeeping
            key = (name, parent[0])
            record = aggregates.get(key)
            if record is None:
                record = aggregates[key] = [0, 0.0, 0.0]
            elapsed = clock() - start
            parent[1] += elapsed
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - frame[1]
            return result

        return wrapper

    def _coarse_wrapper(self, name, fn):
        """Aggregates plus a span, for the calls that get one."""
        is_search = name in SEARCHES
        is_simulate = name == "model.simulate"

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            parent = self._frames[-1]
            frame = [name, 0.0]
            attrs = None
            if is_simulate:
                attrs = {"policy": type(_arg(args, kwargs, 2, "policy")).__name__}
            span = self._open_span(name, attrs)
            self._search_depth[0] += is_search
            self._frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._frames.pop()
                self._search_depth[0] -= is_search
                self._close_span(span)
            if is_simulate:
                # keep the vectors only, so the result's cache history is freed
                self.simulate_runs.append((
                    _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "sequence"),
                    result.per_request_latency, result.eviction_sequence,
                ))
            self._record(name, parent, frame, start)
            return result

        return wrapper

    def dump(self):
        """JSON-ready aggregates, counters and spans."""
        return {
            "aggregates": [[name, parent, *record]
                           for (name, parent), record in sorted(self.aggregates.items())],
            "counters": dict(self.counters),
            "spans": self.spans,
        }


class AllocTracer:
    """Peak tracemalloc allocation inside ``simulate`` and the searches."""

    GROUPS = {"model.simulate": "simulate", **{name: "search" for name in SEARCHES}}

    def __init__(self):
        self.peaks = {"simulate": 0, "search": 0}
        self._frames = []        # [traced bytes at entry, peak bytes seen]

    def install(self):
        _install(self._wrapper, only=self.GROUPS)

    def _absorb(self, peak):
        for frame in self._frames:
            frame[1] = max(frame[1], peak)

    def _wrapper(self, name, fn):
        group = self.GROUPS[name]

        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self._absorb(peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            self._frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self._frames.pop()
                frame[1] = max(frame[1], peak)
                self._absorb(peak)
                self.peaks[group] = max(self.peaks[group], frame[1] - frame[0])

        return wrapper

    def dump(self):
        return {"peaks": dict(self.peaks)}
