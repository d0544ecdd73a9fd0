"""A trace where taking one extra cache hit makes total latency worse.

The gadget: an early lone request for an item, then a short burst of the
same item just under ``delay`` steps later. If the lone request misses,
its fetch is still in flight when the burst arrives and serves the whole
burst cheaply; if it hits, the burst pays full price. Wrapping the gadget
so that everything else is forced produces two realizable hit-bit vectors
that differ in a single position, where the one with the *extra hit* has
strictly larger total latency, by z*(delay-z) - delay with z = delay//2.
The miss variant is moreover the unique optimum. The fetch-on-hit model
is immune: there the extra hit never increases latency.
"""

from __future__ import annotations

from collections import namedtuple

from . import search
from .model import DEFAULT_SEARCH_BUDGET, ModelParams, SearchBudgetExceeded, VerificationError
from .latency import delayed_hits_latency, antimonotone_latency, dominates
from .search import brute_force_opt, optimal_hit_sequences


class BuildingBlock(namedtuple("BuildingBlock", "sequence all_miss_latency first_hit_latency")):
    """Lone request plus trailing burst of one cold item, with closed forms."""

    __slots__ = ()


def building_block(delay: int, cache_size: int = 1) -> BuildingBlock:
    """The gadget on its own: item k+1 at t=1 and a burst at the window edge.

    The burst of z = delay//2 requests starts at t = delay - z + 1, so a
    missed opening request serves it in flight. Closed forms:
    all-miss costs delay + z(z+1)/2, first-hit costs (delay+1)z - z(z+1)/2;
    the first is smaller exactly when delay >= 5.
    """
    if delay < 1:
        raise ValueError("delay must be >= 1")
    z = delay // 2
    item = cache_size + 1
    seq = [0] * delay
    seq[0] = item
    for t in range(delay - z + 1, delay + 1):
        seq[t - 1] = item
    all_miss = delay + z * (z + 1) // 2
    first_hit = (delay + 1) * z - z * (z + 1) // 2
    return BuildingBlock(tuple(seq), all_miss, first_hit)


class CounterexampleSpec(namedtuple("CounterexampleSpec", "delay cache_size burst_len "
                                    "sequence baseline_bits extra_hit_bits predicted_gap")):
    """The full forced trace plus its two distinguished hit-bit vectors.

    ``burst_len`` is z = delay // 2; ``baseline_bits`` is the optimal
    vector, which misses the gadget, and ``extra_hit_bits`` the same with
    the one extra hit; ``predicted_gap`` is z*(delay - z) - delay, positive
    for delay >= 5.
    """

    __slots__ = ()

    def params(self) -> ModelParams:
        return ModelParams(self.cache_size + 2, self.cache_size, self.delay)


def counterexample_sequence(delay: int, cache_size: int = 1) -> CounterexampleSpec:
    """Build the forced trace for any cache size.

    The k=1 core: hot = k+1 at t=1, decoy = k+2 at t=2, the gadget
    (:func:`building_block` of hot) on t=delay+1..2*delay, so hot again
    at t=delay+1 and a z-burst of hot ending at 2*delay, and a delay-long
    block of the decoy at the tail. The tail forces the optimum to cache the
    decoy when it returns (retrieval of t=delay+1), which evicts whatever
    the single useful slot held, so the only live choice is whether the
    hot request at t=delay+1 hits. For larger caches, a delay-long block
    for each initially resident item 2..k pins those slots; blocks are
    laid out on 2*delay strides so every active block has at least
    ``delay`` idle slots on each side.
    """
    if delay < 5:
        raise ValueError("the construction needs delay >= 5 to have a positive gap")
    if cache_size < 1:
        raise ValueError("cache_size must be >= 1")
    k, z = cache_size, delay // 2
    hot, decoy = k + 1, k + 2
    length = (2 * k + 2) * delay
    seq = [0] * length

    def put(t, item):
        seq[t - 1] = item

    put(1, hot)
    put(2, decoy)
    seq[delay:2 * delay] = building_block(delay, k).sequence
    for j in range(k - 1):
        pinned = j + 2
        start = (3 + 2 * j) * delay + 1
        for t in range(start, start + delay):
            put(t, pinned)
    tail_start = (2 * k + 1) * delay + 1
    for t in range(tail_start, tail_start + delay):
        put(t, decoy)

    miss_times = {1, 2, delay + 1} | set(range(2 * delay - z + 1, 2 * delay + 1))
    baseline = tuple(0 if t in miss_times else 1 for t in range(1, length + 1))
    extra = list(baseline)
    extra[delay] = 1  # the lone flippable position, t = delay + 1
    return CounterexampleSpec(
        delay=delay,
        cache_size=k,
        burst_len=z,
        sequence=tuple(seq),
        baseline_bits=baseline,
        extra_hit_bits=tuple(extra),
        predicted_gap=z * (delay - z) - delay,
    )


class NonAntimonotonicityReport(namedtuple(
        "NonAntimonotonicityReport", "baseline_latency extra_hit_latency gap "
        "fetch_on_hit_baseline fetch_on_hit_extra baseline_witness extra_hit_witness "
        "opt_latency opt_unique", defaults=(None,) * 4)):
    """Verified evidence that the extra hit strictly increases latency.

    Each search's evidence stays None until that search passes, so the
    partial report that an overrun carries keeps what was verified.
    """

    __slots__ = ()


def verify_nonantimonotonicity(
    cspec: CounterexampleSpec,
    check_optimal: bool = True,
    node_budget: int = DEFAULT_SEARCH_BUDGET,
) -> NonAntimonotonicityReport:
    """Check every claim the construction makes; raise on the first failure.

    First the claims that need no search: the one-bit domination
    structure, the exact latency gap and the immunity of the fetch-on-hit
    model. Then the claims that need a search, in order: the feasibility
    of each vector and, with ``check_optimal``, the optimum and the set of
    optima, which must be the baseline alone.

    With ``check_optimal`` a first-deviation search runs first: bounded
    by ``limit`` = the baseline's closed-form latency, it keeps the first
    run that realizes the baseline and stops at the first run whose hit
    bits leave it at no greater cost. When it keeps the baseline's run and
    nothing else, that one search settles the baseline's feasibility (its
    run is the feasibility search's first witness), the optimum and
    uniqueness, so only the extra-hit feasibility search runs after it.
    Otherwise the remaining searches run in the order above, the optimum
    search last; an overrun of the first search is raised at the
    unique-optimum step, and the set of optima is searched only to count
    it in the refusal. Each search runs at most once. The feasibility
    searches are bounded by their target's closed-form latency too.
    A search that overruns ``node_budget`` raises
    :class:`SearchBudgetExceeded` as ``"<step> search: <message>"``, with
    the partial report as ``exc.report``.
    """
    seq, delay = list(cspec.sequence), cspec.delay
    b, b_hi = list(cspec.baseline_bits), list(cspec.extra_hit_bits)

    if not dominates(b, b_hi):
        raise VerificationError("baseline bits do not precede the extra-hit bits")
    diffs = [t for t in range(1, len(seq) + 1) if b[t - 1] != b_hi[t - 1]]
    if diffs != [delay + 1]:
        raise VerificationError(f"bit vectors differ at {diffs}, expected [{delay + 1}]")

    low, _ = delayed_hits_latency(seq, delay, b)
    high, _ = delayed_hits_latency(seq, delay, b_hi)
    gap = high - low
    if gap != cspec.predicted_gap:
        raise VerificationError(
            f"latency gap is {gap}, closed form predicts {cspec.predicted_gap}"
        )
    if gap <= 0:
        raise VerificationError(f"gap {gap} is not positive")

    anti_low, _ = antimonotone_latency(seq, delay, b)
    anti_high, _ = antimonotone_latency(seq, delay, b_hi)
    if anti_high > anti_low:
        raise VerificationError(
            "fetch-on-hit latency increased under the extra hit; it must not"
        )

    report = NonAntimonotonicityReport(
        baseline_latency=low,
        extra_hit_latency=high,
        gap=gap,
        fetch_on_hit_baseline=anti_low,
        fetch_on_hit_extra=anti_high,
    )
    params = cspec.params()
    baseline = tuple(b)
    runs = overrun = None
    if check_optimal:
        try:
            _, runs, _ = search._search(params, seq, node_budget=node_budget,
                                        limit=low, avoid=b)
        except SearchBudgetExceeded as exc:
            overrun = exc
    # a run of the baseline and none of another vector costing low or less
    settled = runs is not None and runs.keys() == {baseline}
    step = "baseline feasibility"
    try:
        # each feasibility search is is_hit_sequence_feasible's, handed the
        # closed-form latency computed above as its limit
        if not settled:
            _, runs, _ = search._search(params, seq, node_budget=node_budget, target=b, limit=low)
            if not runs:
                raise VerificationError("baseline hit sequence is not feasible")
        (witness,) = runs.values()
        report = report._replace(baseline_witness=witness)
        step = "extra-hit feasibility"
        _, runs, _ = search._search(params, seq, node_budget=node_budget, target=b_hi, limit=high)
        if not runs:
            raise VerificationError("extra-hit hit sequence is not feasible")
        (witness,) = runs.values()
        report = report._replace(extra_hit_witness=witness)
        if not check_optimal:
            return report
        step = "optimum"
        optimum = low if settled else brute_force_opt(params, seq, node_budget).min_latency
        if optimum != low:
            raise VerificationError(
                f"exhaustive optimum {optimum} != baseline latency {low}"
            )
        report = report._replace(opt_latency=optimum)
        step = "unique-optimum"
        if overrun is not None:
            raise overrun
        if not settled:
            # another vector costs at most the optimum; count them all
            _, optima = optimal_hit_sequences(params, seq, node_budget)
            raise VerificationError(
                f"baseline is not the unique optimal hit sequence; found {len(optima)}"
            )
        report = report._replace(opt_unique=True)
    except SearchBudgetExceeded as exc:
        overrun = SearchBudgetExceeded(f"{step} search: {exc}")
        overrun.report = report
        raise overrun from exc
    return report
