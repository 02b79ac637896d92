"""Tests of the benchmark's own arithmetic on synthetic spans and samples,
and of its checks on synthetic reports.

Run with:  python3 -m pytest perfbench
"""

from types import SimpleNamespace

import pytest

import stats
import workloads
from workloads import forest_count


def span(name, start, end, parent=-1, count=0, repeat=False):
    return (name, start, end, parent, count, repeat)


# A pass with one gap search that enters the invariants layer twice (the
# second a repeat), calls the oracle once, and keeps 1.7 s of self time.
TREE = [
    span("regbounds.gap_search", 0.0, 10.0),                  # 0
    span("invariants.induced_matching_number", 0.5, 1.5, 0),  # 1
    span("invariants.maximum_induced_matching", 0.7, 1.2, 1), # 2
    span("betti.reg_power", 2.0, 9.0, 0),                     # 3
    span("betti.lcm_lattice", 2.5, 4.0, 3, count=40),         # 4
    span("betti.koszul_complex", 4.0, 4.5, 3, count=1),       # 5
    span("betti.koszul_complex", 4.5, 5.0, 3, count=0),       # 6
    span("betti.koszul_complex", 5.0, 5.5, 3, count=0),       # 7
    span("homology.reduced_homology_ranks", 5.5, 8.0, 3),     # 8
    span("homology.matrix_rank", 6.0, 7.0, 8, count=12),      # 9
    span("homology.matrix_rank", 7.0, 7.5, 8, count=5),       # 10
    span("invariants.induced_matching_number", 9.2, 9.5, 0, repeat=True),  # 11
]


def test_self_time_subtracts_children():
    selfs = stats.self_times(TREE)
    assert selfs[0] == pytest.approx(10.0 - 1.0 - 7.0 - 0.3)
    assert selfs[1] == pytest.approx(0.5)
    assert selfs[3] == pytest.approx(7.0 - 1.5 - 1.5 - 2.5)
    assert selfs[8] == pytest.approx(2.5 - 1.5)
    assert selfs[9] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span("a.f", 0.0, 4.0), span("b.g", 1.0, 3.0, 0), span("b.h", 2.0, 3.5, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(4.0 - 2.5)


def test_self_time_clips_children_to_the_parent():
    spans = [span("a.f", 0.0, 2.0), span("b.g", 1.5, 3.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(1.5)


def test_layer_metrics_of_the_tree():
    summary = stats.SpanSummary(TREE)
    setup = stats.SpanSummary([
        span("smallgraphs.enumerate_family", 0.0, 0.4, count=65),
        span("smallgraphs.forests", 0.1, 0.3, 0, count=65),
    ])
    m = stats.layer_metrics(setup, summary, n_passes=1, overhead_s=0.25)
    assert m["smallgraphs.enumerate_s"] == pytest.approx(0.4)
    assert m["smallgraphs.graphs"] == 65
    assert m["invariants.calls"] == 2
    assert m["invariants.repeat_calls"] == 1
    assert m["invariants.self_s"] == pytest.approx(0.5 + 0.5 + 0.3)
    assert m["betti.lattice_size"] == 40
    assert m["betti.koszul_complex_calls"] == 3
    assert m["betti.koszul_complex_s"] == pytest.approx(1.5)
    assert m["betti.cone_skips"] == 1
    assert m["betti.memo_hits"] == 3 - 1 - 1
    assert m["betti.betti_table_self_s"] == 0
    assert m["homology.matrix_rank_calls"] == 2
    assert m["homology.matrix_entries"] == 17
    assert m["homology.reduced_homology_ranks_s"] == pytest.approx(2.5)
    assert m["regbounds.gap_search_self_s"] == pytest.approx(1.7)
    assert m["trace.overhead_s"] == 0.25
    assert set(m) == set(stats.PER_LAYER_UNITS)


def test_layer_metrics_are_per_pass():
    twice = stats.SpanSummary(TREE + [
        (name, start + 10, end + 10, parent + len(TREE) if parent >= 0 else -1, count, repeat)
        for name, start, end, parent, count, repeat in TREE
    ])
    empty = stats.SpanSummary([])
    once = stats.layer_metrics(empty, stats.SpanSummary(TREE), 1, 0.0)
    per_pass = stats.layer_metrics(empty, twice, 2, 0.0)
    assert per_pass == pytest.approx(once)


def test_layer_metrics_rescale_times_not_counts():
    empty = stats.SpanSummary([])
    plain = stats.layer_metrics(empty, stats.SpanSummary(TREE), 1, 0.1)
    fast = stats.layer_metrics(empty, stats.SpanSummary(TREE), 1, 0.1, pass_speed=0.5)
    assert fast["betti.lcm_lattice_s"] == pytest.approx(0.75)
    assert fast["regbounds.gap_search_self_s"] == pytest.approx(0.85)
    assert fast["betti.lattice_size"] == plain["betti.lattice_size"] == 40
    assert fast["trace.overhead_s"] == 0.1


def test_rescale_takes_probes_out_and_follows_their_speed():
    # probes of 0.1 s every second; the machine runs at half speed after t=10
    samples = [(float(t), 0.1 if t < 10 else 0.2) for t in range(20)]
    got = stats.rescale([(0.5, 3.5), (12.5, 15.5), (4.2, 4.4)], samples, reference_s=0.1, exponent=1.0)
    (net0, speed0), (net1, speed1), (net2, speed2) = got
    assert net0 == pytest.approx(3.0 - 3 * 0.1)
    assert speed0 == 1.0
    assert net1 == pytest.approx(3.0 - 3 * 0.2)
    assert speed1 == 0.5
    # no probe inside: the nearest five decide
    assert net2 == pytest.approx(0.2)
    assert speed2 == 1.0


def test_rescale_ignores_one_slow_probe():
    samples = [(float(t), 0.1) for t in range(10)]
    samples[5] = (5.0, 0.9)
    (net, speed), = stats.rescale([(4.5, 5.5)], samples, reference_s=0.1, exponent=1.0)
    assert net == pytest.approx(1.0 - 0.9)
    assert speed == 1.0


def test_rescale_exponent_damps_the_correction():
    samples = [(float(t), 0.4) for t in range(10)]
    (net, speed), = stats.rescale([(2.5, 3.5)], samples, reference_s=0.1, exponent=0.5)
    assert speed == pytest.approx(0.5)


def test_rescale_needs_enough_probes():
    with pytest.raises(ValueError):
        stats.rescale([(0.0, 1.0)], [(0.5, 0.1)] * 4, reference_s=0.1, exponent=1.0)


def test_memo_hits():
    assert stats.memo_hits(koszul_calls=100, cone_skips=60, homology_calls=15) == 25


@pytest.mark.parametrize(
    "ops, p",
    [(105, 90), (65, 84), (40, 75), (39, 50), (27, 50), (3, 50), (1000, 99)],
)
def test_tail_percentile_leaves_ten_operations_beyond(ops, p):
    assert stats.tail_percentile(ops) == p
    if p != 50:
        assert ops * (100 - p) / 100 >= 10
        assert ops * (100 - (p + 1)) / 100 < 10


def test_percentile_of_samples():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 90) == pytest.approx(90.1)
    assert stats.percentile([3.0], 90) == 3.0


def test_forest_count_is_the_euler_transform_of_the_tree_numbers():
    # forests with exactly e edges and no isolated vertex: 1, 2, 4, 8, 16, 34
    assert [forest_count(e) - forest_count(e - 1) for e in range(2, 7)] == [2, 4, 8, 16, 34]
    assert forest_count(6) == 65


def harness_report(edges, s, drop=()):
    """The records check_theorems makes at s on a bipartite graph, less drop."""
    checks = [
        SimpleNamespace(claim="...", citation=tag, status="pass")
        for tag in workloads.HARNESS_REPORT_TAGS
    ]
    tags = workloads.HARNESS_MULTISET_TAGS_S2 if s == 2 else workloads.HARNESS_MULTISET_TAGS
    for m in workloads.itertools.combinations_with_replacement(edges, s):
        label = ", ".join(f"{u}*{v}" for u, v in m)
        checks += [
            SimpleNamespace(claim=f"holds for [{label}]", citation=tag, status="pass")
            for tag in tags
            if (tag, label) not in drop
        ]
    return SimpleNamespace(s=s, checks=checks)


P3 = SimpleNamespace(edges=(("x1", "x2"), ("x2", "x3")))


def test_claim_multiset_ignores_edge_and_endpoint_order():
    assert workloads.claim_multiset("agree for [x2*x1, x1*x3]") == (("x1", "x2"), ("x1", "x3"))
    assert workloads.claim_multiset("x <= 3 for [x3*x1, x1*x2]") == (("x1", "x2"), ("x1", "x3"))


@pytest.mark.parametrize("s", [1, 2])
def test_harness_coverage_passes_a_complete_report(s):
    failures = workloads.Failures()
    workloads.HarnessBipartite6.check_coverage(P3, harness_report(P3.edges, s), 0, failures)
    assert failures.count(1) == 0


def test_harness_coverage_fails_a_skipped_multiset():
    failures = workloads.Failures()
    report = harness_report(P3.edges, 2, drop={("iterated-colon-collapse", "x1*x2, x2*x3")})
    workloads.HarnessBipartite6.check_coverage(P3, report, 0, failures)
    assert failures.count(1) == 1


def test_harness_coverage_fails_a_missing_oracle():
    failures = workloads.Failures()
    report = harness_report(P3.edges, 1)
    report.checks = [c for c in report.checks if c.citation != "power-lower"]
    workloads.HarnessBipartite6.check_coverage(P3, report, 0, failures)
    assert failures.count(1) == 1


def test_run_each_returns_an_exception_as_the_output():
    def call(x):
        if x == 2:
            raise ValueError("no")
        return x * 10

    ops, outputs = workloads.run_each(call, [1, 2, 3], lambda: None)
    assert len(ops) == 3 and all(start <= end for start, end in ops)
    assert outputs[0] == 10 and isinstance(outputs[1], ValueError) and outputs[2] == 30
    failures = workloads.Failures()
    workloads.count_raised([outputs, outputs], failures)
    assert failures.count(3) == 1
