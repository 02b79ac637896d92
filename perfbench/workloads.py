"""The benchmark's workloads: how each builds its graphs, runs one pass of
its operations through edgeideal's public entry points, and checks the
results against references that share no code with the library.

Every workload's graphs are fixed; the seed shuffles the order of the
operations and picks the sampled checks.  The seed relabels no vertex:
the library's search and elimination orders follow the labels, and one
relabelling of the same graphs can run a tenth slower than another,
which would make the figures depend on the seed.  A pass runs every
operation once, so every run attempts whole passes of the same
operations.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

from probe import SENSITIVITY

# Connected bipartite graphs on n vertices, n = 2..6 (OEIS A005142).
A005142 = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17}
# Trees on k + 1 vertices, i.e. with k edges, k = 1..6 (OEIS A000055).
A000055_BY_EDGES = {1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 11}

# The fixed pool of connected 7-vertex graphs: how many of each edge
# count, one eighth of the 853 connected 7-vertex graphs per edge count.
CONNECTED7_QUOTA = {
    6: 1, 7: 4, 8: 8, 9: 13, 10: 16, 11: 17, 12: 16,
    13: 12, 14: 8, 15: 5, 16: 3, 17: 1, 18: 1,
}
CONNECTED7_POOL_SEED = 853

# (label, (constructor in edgeideal.families, its arguments), s) for
# reg-large; RegLarge.check holds the closed form for each label.
REG_LARGE = (
    ("C10", ("cycle", 10), 2),
    ("P10", ("path", 10), 2),
    ("K3,3", ("complete_bipartite", 3, 3), 3),
)

# Sampled checks per run.
GAP_SAMPLE = 3
HARNESS_SAMPLE = 4

# Records check_theorems makes on every connected bipartite graph with an
# edge: per report, from the Betti oracle; per edge multiset of size s,
# from the checks on its derived graph G' (oracle included).  Records that
# depend on a hypothesis of the graph (unmixed, P_k-free, ...) are left out.
HARNESS_REPORT_TAGS = (
    "invariant-chain", "power-lower", "power-lower-subgraph",
    "power-upper-cochord", "power-upper-matching", "power-upper-bipartition",
)
HARNESS_MULTISET_TAGS = (
    "derived-graph-routes", "derived-graph-bipartite",
    "induced-matching-monotone", "cochord-monotone", "colon-reg-bounded",
)
HARNESS_MULTISET_TAGS_S2 = HARNESS_MULTISET_TAGS + ("iterated-colon-collapse",)


class Failures:
    """Failed input indices with one message each."""

    def __init__(self) -> None:
        self.by_index: Dict[int, str] = {}
        self.whole_pass: List[str] = []

    def add(self, index: int, message: str) -> None:
        self.by_index.setdefault(index, message)

    def all(self, message: str) -> None:
        self.whole_pass.append(message)

    def count(self, n_inputs: int) -> int:
        return n_inputs if self.whole_pass else len(self.by_index)

    def messages(self) -> List[str]:
        return self.whole_pass + [f"input {i}: {m}" for i, m in sorted(self.by_index.items())]

    @contextmanager
    def blame(self, index: int) -> Iterator[None]:
        """Count an exception raised inside the block as input index failing."""
        try:
            yield
        except Exception as exc:
            self.add(index, f"raised {exc!r}")


# -- the benchmark's own graph reference code --------------------------------


def adjacency(g) -> Dict[str, set]:
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def component_count(g) -> int:
    adj = adjacency(g)
    unseen = set(g.vertices)
    count = 0
    while unseen:
        count += 1
        stack = [unseen.pop()]
        while stack:
            for w in adj[stack.pop()]:
                if w in unseen:
                    unseen.discard(w)
                    stack.append(w)
    return count


def two_colourable(g) -> bool:
    adj = adjacency(g)
    colour: Dict[str, int] = {}
    for root in g.vertices:
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def forest_count(max_edges: int) -> int:
    """Forests with 1..max_edges edges and no isolated vertex: multisets of
    trees, counted from the tree numbers by the Euler transform."""
    ways = [1] + [0] * max_edges
    for k, kinds in A000055_BY_EDGES.items():
        for _ in range(kinds):
            for e in range(k, max_edges + 1):
                ways[e] += ways[e - k]
    return sum(ways[1:])


def edge_set(g) -> set:
    return {frozenset(e) for e in g.edges}


def multiset_key(edges) -> tuple:
    """An edge multiset, independent of the order of edges and endpoints."""
    return tuple(sorted(tuple(sorted(e)) for e in edges))


def claim_multiset(claim: str) -> tuple:
    """The multiset a check_theorems claim names as [u*v, ...]."""
    label = claim[claim.rindex("[") + 1:claim.rindex("]")]
    return multiset_key(pair.split("*") for pair in label.split(", "))


def run_each(call: Callable, inputs: list, between: Callable[[], None]):
    """call(x) for each input, timed alone: ((start, end) of each, outputs).

    An exception is returned as that operation's output, for check to count.
    """
    ops, outputs = [], []
    for x in inputs:
        between()
        start = perf_counter()
        try:
            out = call(x)
        except Exception as exc:
            out = exc
        ops.append((start, perf_counter()))
        outputs.append(out)
    return ops, outputs


def count_raised(passes: List[list], failures: Failures) -> None:
    for k, outputs in enumerate(passes):
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                failures.add(i, f"pass {k} raised {out!r}")


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    # How much of the probe loop's slowdown this workload's work shares;
    # see probe.SENSITIVITY.
    sensitivity = SENSITIVITY

    def build(self, lib, seed: int) -> list:
        raise NotImplementedError

    def digest(self, output):
        """A small value equal for equal outputs of one operation."""
        return output

    def digest_pass(self, outputs: list) -> list:
        """digest of each output; an exception stays as it is, for check."""
        return [out if isinstance(out, Exception) else self.digest(out) for out in outputs]

    def run_pass(self, lib, inputs: list, between: Callable[[], None]) -> Tuple[List[Tuple[float, float]], list]:
        """Run every operation once: ((start, end) of each operation, outputs).

        between() runs before each operation, outside its timing.
        """
        raise NotImplementedError

    def check(self, lib, oracles, inputs: list, passes: List[list], seed: int) -> Failures:
        """Check the outputs: passes[0] in full, later passes as digests."""
        raise NotImplementedError


class GapSearch(Workload):
    """One gap_search call per pass over the workload's graphs; each graph
    is one operation, timed between successive pulls of the input."""

    s = 1

    def graphs(self, lib) -> list:
        raise NotImplementedError

    def build(self, lib, seed: int) -> list:
        graphs = list(self.graphs(lib))
        random.Random(f"{self.name}:{seed}").shuffle(graphs)
        return graphs

    def run_pass(self, lib, inputs, between):
        starts: List[float] = []
        ends: List[float] = []

        def feed() -> Iterator:
            for g in inputs:
                ends.append(perf_counter())
                between()
                starts.append(perf_counter())
                yield g

        try:
            report = lib.regbounds.gap_search(feed(), self.s)
        except Exception as exc:
            report = exc
        end = perf_counter()
        ends.append(end)
        ops = list(zip(starts, ends[1:]))
        # graphs never pulled, when the search raised
        ops += [(end, end)] * (len(inputs) - len(ops))
        return ops, [report]

    def expected_t(self, t: int, n: int) -> bool:
        raise NotImplementedError

    def check(self, lib, oracles, inputs, passes, seed):
        failures = Failures()
        s = self.s
        self.check_inputs(inputs, failures)
        brute_nu = [oracles.brute_induced_matching_number(g) for g in inputs]
        for i, g in enumerate(inputs):
            with failures.blame(i):
                nu = lib.invariants.induced_matching_number(g)
                if nu != brute_nu[i]:
                    failures.add(i, f"nu {nu} != brute force {brute_nu[i]}")
        ids = {lib.regbounds.graph_id(g): i for i, g in enumerate(inputs)}
        for k, (report,) in enumerate(passes):
            if isinstance(report, Exception):
                failures.all(f"pass {k}: gap_search raised {report!r}")
        reports = [(k, p[0]) for k, p in enumerate(passes) if not isinstance(p[0], Exception)]
        if not reports:
            return failures
        for k, report in reports:
            if report.total != len(inputs) or report.skipped:
                failures.all(f"pass {k}: examined {report.total}, skipped {report.skipped}")
            if sum(sum(row.values()) for row in report.distribution.values()) != len(inputs):
                failures.all(f"pass {k}: distribution does not count every graph")
            for n, row in report.distribution.items():
                for t in row:
                    if not self.expected_t(t, n):
                        failures.all(f"pass {k}: offset t={t} at cochord-nu={n}")
            for item in report.strict:
                i = ids.get(item["graph"])
                if i is None or item["nu"] != brute_nu[i]:
                    failures.all(f"pass {k}: strict entry {item} does not match its graph")
                elif not 2 * s + item["nu"] - 1 < item["reg"] < 2 * s + item["cochord"] - 1:
                    failures.add(i, f"strict entry {item} is not strict")
        first = reports[0][1].to_json_dict()
        if any(r.to_json_dict() != first for _, r in reports[1:]):
            failures.all("passes disagree")
        rng = random.Random(f"{self.name}:{seed}:check")
        distribution = reports[0][1].distribution
        for i in self.sample(inputs, rng):
            g = inputs[i]
            with failures.blame(i):
                cochord = lib.chordal.cochordal_cover_number(g)[0]
                brute_cochord = oracles.brute_cochordal_cover_number(g)
                if cochord != brute_cochord:
                    failures.add(i, f"cochord {cochord} != brute force {brute_cochord}")
                reg = lib.betti.reg_power(g, s)
                if self.taylor_ok(g):
                    ideal = lib.monomials.power(lib.monomials.edge_ideal(g), s)
                    taylor = oracles.taylor_regularity(ideal)
                    if reg != taylor:
                        failures.add(i, f"reg {reg} != Taylor resolution {taylor}")
                n, t = brute_cochord - brute_nu[i], reg - (2 * s + brute_nu[i] - 1)
                if distribution.get(n, {}).get(t, 0) < 1:
                    failures.add(i, f"cell n={n} t={t} missing from the distribution")
        return failures

    def check_inputs(self, inputs: list, failures: Failures) -> None:
        raise NotImplementedError

    def sample(self, inputs: list, rng: random.Random) -> List[int]:
        """GAP_SAMPLE graphs small enough for the brute-force cover search,
        one of them also small enough for the Taylor resolution."""
        taylor = [i for i, g in enumerate(inputs) if self.taylor_ok(g)]
        first = rng.choice(taylor)
        small = [i for i, g in enumerate(inputs) if g.n_edges <= 12 and i != first]
        return sorted([first] + rng.sample(small, GAP_SAMPLE - 1))

    def taylor_ok(self, g) -> bool:
        raise NotImplementedError


class GapConnected7(GapSearch):
    name = "gap-connected7-s1"
    s = 1

    def graphs(self, lib):
        """The fixed pool: random connected graphs on x1..x7 drawn with a
        fixed seed, CONNECTED7_QUOTA[m] of them with m edges."""
        rng = random.Random(CONNECTED7_POOL_SEED)
        verts = [f"x{i}" for i in range(1, 8)]
        pairs = list(itertools.combinations(verts, 2))
        pool = []
        for m, k in CONNECTED7_QUOTA.items():
            made = 0
            while made < k:
                g = lib.graphs.Graph(verts, rng.sample(pairs, m))
                if component_count(g) == 1:
                    pool.append(g)
                    made += 1
        return pool

    def expected_t(self, t, n):
        # nu + 1 <= reg(I) <= cochord + 1 for every graph
        return 0 <= t <= n

    def check_inputs(self, inputs, failures):
        want = sum(CONNECTED7_QUOTA.values())
        if len(inputs) != want:
            failures.all(f"{len(inputs)} graphs, expected {want}")
        for i, g in enumerate(inputs):
            if g.n_vertices != 7 or component_count(g) != 1:
                failures.add(i, "not a connected 7-vertex graph")

    def taylor_ok(self, g):
        return g.n_edges <= 8


class GapForests6(GapSearch):
    name = "gap-forests6-s2"
    s = 2

    def graphs(self, lib):
        return lib.smallgraphs.enumerate_family("forests:6")

    def expected_t(self, t, n):
        # reg(I(G)^s) = 2s + nu - 1 for every forest (Beyarslan-Ha-Trung 2015)
        return t == 0

    def check_inputs(self, inputs, failures):
        want = forest_count(6)
        if len(inputs) != want:
            failures.all(f"{len(inputs)} forests, expected {want}")
        for i, g in enumerate(inputs):
            if g.n_edges != g.n_vertices - component_count(g):
                failures.add(i, "has a cycle")
            if any(not ns for ns in adjacency(g).values()):
                failures.add(i, "has an isolated vertex")

    def taylor_ok(self, g):
        # I^2 of a forest with 4 edges has at most 10 generators
        return g.n_edges <= 4


class HarnessBipartite6(Workload):
    name = "harness-bipartite6"

    def build(self, lib, seed):
        graphs = [
            g
            for n in sorted(A005142)
            for g in lib.smallgraphs.enumerate_family(f"connected-bipartite:{n}")
        ]
        random.Random(f"{self.name}:{seed}").shuffle(graphs)
        return graphs

    def run_pass(self, lib, inputs, between):
        config = lib.regbounds.CheckConfig(s_values=(1, 2), max_multiset_size=2)
        return run_each(lambda g: lib.regbounds.check_theorems(g, config), inputs, between)

    def digest(self, reports):
        # The reports of one graph run to tens of kB.  Digests are compared
        # within one process only, so the built-in hash will do; hashlib
        # would load a crypto library of several MB into peak_rss_mb.
        return hash(json.dumps([r.to_json_dict() for r in reports], sort_keys=True))

    def check(self, lib, oracles, inputs, passes, seed):
        failures = Failures()
        want = sum(A005142.values())
        if len(inputs) != want:
            failures.all(f"{len(inputs)} graphs, expected {want} (A005142)")
        for i, g in enumerate(inputs):
            if component_count(g) != 1 or not two_colourable(g):
                failures.add(i, "not connected and bipartite")
        count_raised(passes, failures)
        for i, reports in enumerate(passes[0]):
            if isinstance(reports, Exception):
                continue
            if [r.s for r in reports] != [1, 2]:
                failures.add(i, "missing a report")
            for r in reports:
                for c in r.checks:
                    if c.status == "fail":
                        failures.add(i, f"s={r.s} {c.citation}: {c.claim}")
                self.check_coverage(inputs[i], r, i, failures)
        first = self.digest_pass(passes[0])
        for k, outputs in enumerate(passes[1:], start=1):
            for i, out in enumerate(outputs):
                if repr(out) != repr(first[i]):
                    failures.add(i, f"pass {k} differs from pass 0")
        rng = random.Random(f"{self.name}:{seed}:check")
        for i in sorted(rng.sample(range(len(inputs)), min(HARNESS_SAMPLE, len(inputs)))):
            g = inputs[i]
            multiset = [rng.choice(g.edges) for _ in range(rng.randint(1, 2))]
            want_edges = edge_set(g)
            verts = g.vertices
            for a in range(len(verts)):
                for b in range(a, len(verts)):
                    u, v = verts[a], verts[b]
                    if oracles.brute_even_connected(g, u, v, multiset):
                        want_edges.add(frozenset((u, v if u != v else f"z@{u}")))
            with failures.blame(i):
                if edge_set(lib.evenconnection.gprime(g, multiset)) != want_edges:
                    failures.add(i, f"G' for {multiset} differs from the walk enumeration")
        return failures

    @staticmethod
    def check_coverage(g, report, i: int, failures: Failures) -> None:
        """Every record that this graph and s call for is there: a check
        skipped, for instance after a ResourceLimitError, fails the input."""
        tags = Counter(c.citation for c in report.checks)
        for tag in HARNESS_REPORT_TAGS:
            if tags[tag] != 1:
                failures.add(i, f"s={report.s}: {tags[tag]} {tag} records, expected 1")
        want = Counter(
            multiset_key(m)
            for m in itertools.combinations_with_replacement(g.edges, report.s)
        )
        for tag in HARNESS_MULTISET_TAGS_S2 if report.s == 2 else HARNESS_MULTISET_TAGS:
            got = Counter(claim_multiset(c.claim) for c in report.checks if c.citation == tag)
            if got != want:
                failures.add(i, f"s={report.s}: {tag} records for {sum(got.values())}"
                                f" edge multisets, expected one for each of {len(want)}")


class RegLarge(Workload):
    name = "reg-large"
    # Large lcm lattices and rank computations share less of the probe's
    # slowdown than the small-graph work: over ten runs, one of them in a
    # spell where the probe ran 1.5 times slower, the spread of run_s was
    # 0.06 with 0.6 to 0.7 and 0.10 with 0.85.
    sensitivity = 0.65

    def build(self, lib, seed):
        pairs = [
            (label, getattr(lib.families, ctor)(*args), s)
            for label, (ctor, *args), s in REG_LARGE
        ]
        random.Random(f"{self.name}:{seed}").shuffle(pairs)
        return pairs

    def run_pass(self, lib, inputs, between):
        return run_each(lambda pair: lib.betti.reg_power(pair[1], pair[2]), inputs, between)

    def check(self, lib, oracles, inputs, passes, seed):
        failures = Failures()
        count_raised(passes, failures)
        for i, (label, g, s) in enumerate(inputs):
            nu = oracles.brute_induced_matching_number(g)
            if label.startswith("K"):
                want = 2 * s  # K_{m,n}: linear powers
            elif label.startswith("C"):
                want = 2 * s + g.n_vertices // 3 - 1  # cycles, s >= 2
            else:
                want = 2 * s + nu - 1  # paths
            for k, outputs in enumerate(passes):
                if not isinstance(outputs[i], Exception) and outputs[i] != want:
                    failures.add(i, f"{label}^{s}: pass {k} gave {outputs[i]}, closed form {want}")
        return failures


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (GapConnected7(), GapForests6(), HarnessBipartite6(), RegLarge())
}
