"""Arithmetic shared by the benchmark's runs: the tail percentile, the
rescaling of times to a fixed machine speed, self time of a span tree,
and the per-layer metrics derived from spans.

A span is a tuple (name, start, end, parent, count, repeat): name is
"layer.function", parent is the index of the enclosing span or -1, count
is the counter the traced function reported (lattice size, matrix entries,
...), and repeat marks a call already made with the same arguments in the
same operation.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Dict, List, Sequence, Tuple

Span = Tuple[str, float, float, int, int, bool]

# With fewer operations in one pass a tail percentile would be no tail.
MIN_OPS_FOR_TAIL = 40


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with at least ten operations beyond it.

    Fixed per workload by the number of operations in one pass; a
    workload with fewer than forty operations gets 50, the median.
    """
    if ops_per_pass < MIN_OPS_FOR_TAIL:
        return 50
    return (100 * ops_per_pass - 1000) // ops_per_pass


def percentile(values: Sequence[float], p: int) -> float:
    """The p-th percentile, interpolated between closest ranks."""
    if p == 50:
        return statistics.median(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.partition(".")[0]


def _outermost(spans: Sequence[Span], i: int) -> bool:
    """True when no enclosing span belongs to the same function."""
    name = spans[i][0]
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def _entry(spans: Sequence[Span], i: int) -> bool:
    """True when the span is a call into its layer from outside it."""
    parent = spans[i][3]
    return parent < 0 or layer_of(spans[parent][0]) != layer_of(spans[i][0])


class SpanSummary:
    """Totals over a list of spans, by function name."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = spans
        self.selfs = self_times(spans)
        self.inclusive: Dict[str, float] = {}
        self.self_by_name: Dict[str, float] = {}
        self.self_by_layer: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.entry_calls: Dict[str, int] = {}
        self.repeat_calls: Dict[str, int] = {}
        for i, (name, start, end, _, count, repeat) in enumerate(spans):
            layer = layer_of(name)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.counts[name] = self.counts.get(name, 0) + count
            self.self_by_name[name] = self.self_by_name.get(name, 0.0) + self.selfs[i]
            self.self_by_layer[layer] = self.self_by_layer.get(layer, 0.0) + self.selfs[i]
            if _outermost(spans, i):
                self.inclusive[name] = self.inclusive.get(name, 0.0) + (end - start)
            if _entry(spans, i):
                self.entry_calls[layer] = self.entry_calls.get(layer, 0) + 1
                if repeat:
                    self.repeat_calls[layer] = self.repeat_calls.get(layer, 0) + 1

    def layer_entry_seconds(self, layer: str) -> float:
        """Time spent inside calls entering the layer from outside."""
        return sum(
            end - start
            for i, (name, start, end, _, _, _) in enumerate(self.spans)
            if layer_of(name) == layer and _entry(self.spans, i)
        )

    def layer_entry_count(self, layer: str) -> int:
        """Sum of the counters of calls entering the layer from outside."""
        return sum(
            count
            for i, (name, _, _, _, count, _) in enumerate(self.spans)
            if layer_of(name) == layer and _entry(self.spans, i)
        )


def rescale(
    intervals: Sequence[Tuple[float, float]],
    samples: Sequence[Tuple[float, float]],
    reference_s: float,
    *,
    exponent: float,
    nearest: int = 5,
) -> List[Tuple[float, float]]:
    """Each (start, end) interval's time at the reference speed.

    samples are (start, seconds) of the probe loop, in time order.  The
    probes that started inside an interval ran inside it, so their time
    is taken out.  The speed factor is (reference time / median probe
    time) ** exponent, over the probes inside the interval, or the
    `nearest` probes closest to it when fewer ran inside.  Returns (net
    seconds, speed factor) per interval; the rescaled time is their
    product.
    """
    times = [t for t, _ in samples]
    if len(times) < nearest:
        raise ValueError(f"{len(times)} probe samples, need at least {nearest}")
    out = []
    for start, end in intervals:
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        net = (end - start) - sum(dt for _, dt in samples[lo:hi])
        while hi - lo < nearest:
            if lo > 0 and (hi == len(times) or start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        speed = (reference_s / statistics.median(dt for _, dt in samples[lo:hi])) ** exponent
        out.append((net, speed))
    return out


def memo_hits(koszul_calls: int, cone_skips: int, homology_calls: int) -> int:
    """Koszul complexes whose homology came from the memo: neither skipped
    as cones nor sent to the homology layer."""
    return koszul_calls - cone_skips - homology_calls


# Per-layer metrics of the traced run: name -> unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "smallgraphs.enumerate_s": "s",
    "smallgraphs.graphs": "count",
    "invariants.self_s": "s",
    "invariants.calls": "count",
    "invariants.repeat_calls": "count",
    "chordal.cochordal_cover_number_s": "s",
    "chordal.cochordal_cover_number_calls": "count",
    "chordal.is_cochordal_calls": "count",
    "monomials.power_s": "s",
    "monomials.power_generators": "count",
    "monomials.colon_by_monomial_s": "s",
    "monomials.polarize_s": "s",
    "monomials.iterated_colon_s": "s",
    "betti.lcm_lattice_s": "s",
    "betti.lattice_size": "count",
    "betti.koszul_complex_s": "s",
    "betti.koszul_complex_calls": "count",
    "betti.betti_table_self_s": "s",
    "betti.cone_skips": "count",
    "betti.memo_hits": "count",
    "homology.reduced_homology_ranks_s": "s",
    "homology.reduced_homology_ranks_calls": "count",
    "homology.matrix_rank_s": "s",
    "homology.matrix_rank_calls": "count",
    "homology.matrix_entries": "count",
    "evenconnection.gprime_s": "s",
    "evenconnection.gprime_algebraic_s": "s",
    "regbounds.gap_search_self_s": "s",
    "regbounds.check_theorems_self_s": "s",
    "regbounds.reg_exact_class_s": "s",
    "regbounds.russ_lower_bound_witness_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(
    setup: SpanSummary,
    passes: SpanSummary,
    n_passes: int,
    overhead_s: float,
    setup_speed: float = 1.0,
    pass_speed: float = 1.0,
) -> Dict[str, float]:
    """Per-layer metrics: set-up figures from one traced set-up, the rest
    as means per pass over the traced passes.  Times are multiplied by the
    speed factor of their phase (see rescale)."""

    def per_pass(value: float) -> float:
        return value / n_passes

    def incl(name: str) -> float:
        return per_pass(passes.inclusive.get(name, 0.0))

    def calls(name: str) -> float:
        return per_pass(passes.calls.get(name, 0))

    def count(name: str) -> float:
        return per_pass(passes.counts.get(name, 0))

    koszul = passes.calls.get("betti.koszul_complex", 0)
    cones = passes.counts.get("betti.koszul_complex", 0)
    homology = passes.calls.get("homology.reduced_homology_ranks", 0)
    metrics = {
        "smallgraphs.enumerate_s": setup.layer_entry_seconds("smallgraphs") * setup_speed,
        "smallgraphs.graphs": setup.layer_entry_count("smallgraphs"),
        "invariants.self_s": per_pass(passes.self_by_layer.get("invariants", 0.0)),
        "invariants.calls": per_pass(passes.entry_calls.get("invariants", 0)),
        "invariants.repeat_calls": per_pass(passes.repeat_calls.get("invariants", 0)),
        "chordal.cochordal_cover_number_s": incl("chordal.cochordal_cover_number"),
        "chordal.cochordal_cover_number_calls": calls("chordal.cochordal_cover_number"),
        "chordal.is_cochordal_calls": calls("chordal.is_cochordal"),
        "monomials.power_s": incl("monomials.power"),
        "monomials.power_generators": count("monomials.power"),
        "monomials.colon_by_monomial_s": incl("monomials.colon_by_monomial"),
        "monomials.polarize_s": incl("monomials.polarize"),
        "monomials.iterated_colon_s": incl("monomials.iterated_colon"),
        "betti.lcm_lattice_s": incl("betti.lcm_lattice"),
        "betti.lattice_size": count("betti.lcm_lattice"),
        "betti.koszul_complex_s": incl("betti.koszul_complex"),
        "betti.koszul_complex_calls": per_pass(koszul),
        "betti.betti_table_self_s": per_pass(passes.self_by_name.get("betti.betti_table", 0.0)),
        "betti.cone_skips": per_pass(cones),
        "betti.memo_hits": per_pass(memo_hits(koszul, cones, homology)),
        "homology.reduced_homology_ranks_s": incl("homology.reduced_homology_ranks"),
        "homology.reduced_homology_ranks_calls": per_pass(homology),
        "homology.matrix_rank_s": incl("homology.matrix_rank"),
        "homology.matrix_rank_calls": calls("homology.matrix_rank"),
        "homology.matrix_entries": count("homology.matrix_rank"),
        "evenconnection.gprime_s": incl("evenconnection.gprime"),
        "evenconnection.gprime_algebraic_s": incl("evenconnection.gprime_algebraic"),
        "regbounds.gap_search_self_s": per_pass(passes.self_by_name.get("regbounds.gap_search", 0.0)),
        "regbounds.check_theorems_self_s": per_pass(passes.self_by_name.get("regbounds.check_theorems", 0.0)),
        "regbounds.reg_exact_class_s": incl("regbounds.reg_exact_class"),
        "regbounds.russ_lower_bound_witness_s": incl("regbounds.russ_lower_bound_witness"),
    }
    for name in metrics:
        if name.endswith("_s") and not name.startswith("smallgraphs."):
            metrics[name] *= pass_speed
    metrics["trace.overhead_s"] = overhead_s
    return metrics
