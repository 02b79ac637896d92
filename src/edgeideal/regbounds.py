"""Closed-form regularity bounds for powers of edge ideals, exact-value
classes, a claim-checking harness, and a strict-gap search.

Conventions.  All regularity values refer to the ideal itself, so a
squarefree quadratic ideal with linear resolution has regularity 2.
Bounds are reported for every graph; the two upper bounds are theorems
for bipartite graphs and for s = 1, and carry a proven flag otherwise.
Check records use stable machine tags in their citation field so a
failure can be traced to the exact claim being tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, Iterable, List, Optional, Sequence

from .betti import regularity, reg_power
from .chordal import cochordal_cover_number, induced_cycles, is_weakly_chordal
from .evenconnection import gprime, gprime_algebraic
from .families import is_whiskered
from .graphs import Bipartition, Graph, bipartition, induced_subgraph, is_bipartite
from .invariants import (
    has_dominating_induced_matching,
    induced_matching_number,
    is_pk_free,
    is_unmixed,
    min_maximal_matching_number,
)
from .limits import Caps, ResourceLimitError, default_caps
from .monomials import (
    colon_by_monomial,
    edge_ideal,
    iterated_colon,
    polarize,
    power,
)


def graph_id(g: Graph) -> str:
    """Compact one-line graph identifier used in reports."""
    edges = ",".join(f"{u}-{v}" for u, v in g.edges)
    isolated = [v for v in g.vertices if g.degree(v) == 0]
    if isolated:
        return f"{edges};isolated:{'+'.join(isolated)}" if edges else (
            f"isolated:{'+'.join(isolated)}"
        )
    return edges if edges else "(empty graph)"


# -- individual bounds ---------------------------------------------------------


def reg_lower_bound(g: Graph, s: int, caps: Optional[Caps] = None) -> int:
    """2s + (induced matching number) - 1; valid for every graph."""
    _check_s(s)
    return 2 * s + induced_matching_number(g, caps) - 1


def reg_upper_bound_cochord(g: Graph, s: int, caps: Optional[Caps] = None) -> int:
    """2s + (co-chordal cover number) - 1.

    An upper bound theorem for bipartite graphs at every s and for all
    graphs at s = 1; see upper_bounds_proven.
    """
    _check_s(s)
    return 2 * s + cochordal_cover_number(g, caps)[0] - 1


def reg_upper_bound_matching(g: Graph, s: int, caps: Optional[Caps] = None) -> int:
    """2s + (minimum maximal matching number) - 1; same validity scope."""
    _check_s(s)
    return 2 * s + min_maximal_matching_number(g, caps) - 1


def upper_bounds_proven(g: Graph, s: int) -> bool:
    """Whether the two matching-type upper bounds are theorems here."""
    return s == 1 or is_bipartite(g)


@dataclass(frozen=True)
class BipartitionBound:
    """Exact rational bound plus its floor."""

    value: Fraction
    floor: int


def reg_upper_bound_bipartition(
    g: Graph, s: int, caps: Optional[Caps] = None
) -> BipartitionBound:
    """2s + (nu + smaller side)/2 - 1 for bipartite graphs, as a rational."""
    return GraphProfile(g, caps or default_caps()).bipartition_bound(s)


def _check_s(s: int) -> None:
    if s < 1:
        raise ValueError(f"power exponent must be >= 1, got {s}")


# -- exact-value classes -------------------------------------------------------


@dataclass(frozen=True)
class ExactRegularity:
    value: int
    class_tag: str
    all_tags: tuple[str, ...]


def _cycle_edge_decomposition(g: Graph) -> Optional[tuple[List[int], int]]:
    """Cycle lengths and edge-component count when every component of the
    support is a single edge or a cycle; None otherwise."""
    support = [v for v in g.vertices if g.degree(v) > 0]
    if not support:
        return None
    h = induced_subgraph(g, support)
    lengths: List[int] = []
    k = 0
    for comp in h.components():
        part = induced_subgraph(h, comp)
        if part.n_vertices == 2 and part.n_edges == 1:
            k += 1
        elif part.n_vertices >= 3 and all(
            part.degree(v) == 2 for v in part.vertices
        ):
            lengths.append(part.n_vertices)
        else:
            return None
    return lengths, k


@dataclass(frozen=True)
class GraphProfile:
    """The facts about one graph that more than one caller reads, each
    computed on first use and kept.  check_theorems keeps one profile per
    graph it meets, derived graphs included."""

    graph: Graph
    caps: Caps
    char: int = 0

    @cached_property
    def sides(self) -> Optional[Bipartition]:
        return bipartition(self.graph)

    @cached_property
    def nu(self) -> int:
        return induced_matching_number(self.graph, self.caps)

    @cached_property
    def cochord(self) -> int:
        return cochordal_cover_number(self.graph, self.caps)[0]

    @cached_property
    def unmixed(self) -> bool:
        return is_unmixed(self.graph, self.caps)

    @cached_property
    def min_pk_free(self) -> Optional[int]:
        """Least k in 4, 5, 6 with the graph P_k-free, None if there is none."""
        return next((k for k in (4, 5, 6) if is_pk_free(self.graph, k)), None)

    @cached_property
    def reg(self) -> Optional[int]:
        """reg(I(G)) from the Betti oracle; None without edges or over a cap."""
        if not self.graph.edges:
            return None
        return _try_reg(edge_ideal(self.graph), self.char, self.caps)

    @cached_property
    def class_tags(self) -> tuple[str, ...]:
        """The bipartite exact-value classes the graph is in, in dispatch
        order; empty unless it is bipartite.  Each class gives reg of the
        s-th power as 2s + nu - 1 (the reg3 class has nu = 2)."""
        if self.sides is None:
            return ()
        g = self.graph
        classes = (
            ("unmixed-bipartite", self.unmixed),
            ("weakly-chordal-bipartite", is_weakly_chordal(g)),
            ("whiskered-bipartite", is_whiskered(g)),
            ("p6-free-bipartite", self.min_pk_free is not None),
            (
                "reg3-connected-bipartite",
                g.is_connected() and self.nu == 2 and self.cochord == 2,
            ),
            ("dim-bipartite", has_dominating_induced_matching(g, self.caps)),
        )
        return tuple(tag for tag, holds in classes if holds)

    def bipartition_bound(self, s: int) -> BipartitionBound:
        _check_s(s)
        if self.sides is None:
            raise ValueError("the bipartition bound needs a bipartite graph")
        small = min(len(self.sides.left), len(self.sides.right))
        value = Fraction(2 * s) + Fraction(self.nu + small, 2) - 1
        return BipartitionBound(value, value.__floor__())

    def exact_class(self, s: int) -> Optional[ExactRegularity]:
        """See reg_exact_class."""
        _check_s(s)
        g = self.graph
        if not g.edges:
            return None
        tags: List[tuple[str, int]] = []

        decomp = _cycle_edge_decomposition(g)
        if decomp is not None:
            lengths, k = decomp
            residues = {n % 3 for n in lengths}
            base = k + sum(n // 3 for n in lengths)
            if k >= 1 and residues <= {0, 1}:
                tags.append(("cycles-plus-edges", 2 * s + base - 1))
            elif k >= 1 and residues == {2}:
                tags.append(("cycles-plus-edges", 2 * s + base + len(lengths) - 1))
            elif k == 0 and len(lengths) == 1 and (residues != {2} or s >= 2):
                # a lone cycle of residue 2 at s = 1 follows no covered formula
                tags.append(("cycle", 2 * s + base - 1))

        if self.sides is not None:
            value = 2 * s + self.nu - 1
            tags.extend((tag, value) for tag in self.class_tags)

        if not tags:
            return None
        return ExactRegularity(tags[0][1], tags[0][0], tuple(t for t, _ in tags))


def reg_exact_class(
    g: Graph, s: int, caps: Optional[Caps] = None
) -> Optional[ExactRegularity]:
    """Exact regularity of the s-th power when a known class applies.

    Dispatch order: cycles-plus-edges, single cycle, unmixed bipartite,
    weakly chordal bipartite, whiskered bipartite, P6-free bipartite,
    connected bipartite with both matching invariants equal to 2, and
    bipartite with a dominating induced matching.  The first matching
    class supplies the value; every matching tag is reported.
    """
    return GraphProfile(g, caps or default_caps()).exact_class(s)


# -- induced cycles-plus-edges lower bound -------------------------------------


def _independent_part_collections(
    g: Graph, caps: Caps
) -> List[tuple[tuple[str, ...], int]]:
    """Candidate parts for the induced-subgraph bound: every edge and every
    chordless cycle, as (vertex tuple, cycle length or 0 for an edge)."""
    caps.check_graph(g.n_vertices, g.n_edges, "induced subgraph search")
    parts: List[tuple[tuple[str, ...], int]] = []
    for u, v in g.edges:
        parts.append(((u, v), 0))
    for cyc in induced_cycles(g):
        parts.append((cyc, len(cyc)))
    return parts


def russ_lower_bound_witness(
    g: Graph, s: int, caps: Optional[Caps] = None
) -> tuple[int, tuple[tuple[str, ...], ...]]:
    """Best proven lower bound from an induced union of cycles and edges.

    Plain scoring gives each edge one unit and each cycle of length n a
    third of that, rounded down.  At s = 1 every cycle of length 2 mod 3
    earns one extra unit on top of that, with any mix of parts.  At s >= 2
    the extra unit is only available when every chosen cycle has length
    2 mod 3 and at least one edge part is present.  Returns the bound and
    the chosen parts.
    """
    _check_s(s)
    caps = caps or default_caps()
    base_parts = _independent_part_collections(g, caps)
    if not base_parts:
        return 2 * s - 1, ()
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = g.adjacency_masks()
    entries = []
    for verts, kind in base_parts:
        m = 0
        for v in verts:
            m |= 1 << index[v]
        reach = m
        for v in verts:
            reach |= adj[index[v]]
        entries.append((verts, kind, m, reach))

    best_weight = 0
    best_choice: tuple[tuple[str, ...], ...] = ()

    def run_pass(pool: list, need_edge: bool) -> None:
        nonlocal best_weight, best_choice
        pool = sorted(pool, key=lambda e: -e[1])
        suffix = [0] * (len(pool) + 1)
        for i in range(len(pool) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + pool[i][1]

        def search(start: int, blocked: int, total: int, chosen: list, has_edge: bool) -> None:
            nonlocal best_weight, best_choice
            if (not need_edge or has_edge) and total > best_weight:
                best_weight = total
                best_choice = tuple(chosen)
            for i in range(start, len(pool)):
                if total + suffix[i] <= best_weight:
                    break
                verts, w, m, reach, is_edge = pool[i]
                if m & blocked:
                    continue
                chosen.append(verts)
                search(i + 1, blocked | reach, total + w, chosen, has_edge or is_edge)
                chosen.pop()

        search(0, 0, 0, [], False)

    plain = [(v, k // 3 if k else 1, m, r, k == 0) for v, k, m, r in entries]
    run_pass(plain, need_edge=False)
    if s == 1:
        boosted = [
            (v, (k // 3 + (1 if k % 3 == 2 else 0)) if k else 1, m, r, k == 0)
            for v, k, m, r in entries
        ]
        run_pass(boosted, need_edge=False)
    else:
        boosted = [
            (v, k // 3 + 1, m, r, False)
            for v, k, m, r in entries
            if k >= 3 and k % 3 == 2
        ] + [(v, 1, m, r, True) for v, k, m, r in entries if k == 0]
        if any(e[4] for e in boosted):
            run_pass(boosted, need_edge=True)

    witness = tuple(
        sorted(best_choice, key=lambda vs: (len(vs), tuple(index[v] for v in vs)))
    )
    return 2 * s + best_weight - 1, witness


def russ_lower_bound(g: Graph, s: int, caps: Optional[Caps] = None) -> int:
    return russ_lower_bound_witness(g, s, caps)[0]


# -- the claim harness ---------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    claim: str
    citation: str
    status: str  # pass | fail | recorded-pass | recorded-fail

    def to_json_dict(self) -> dict:
        return {"claim": self.claim, "citation": self.citation, "status": self.status}


@dataclass
class RegularityReport:
    graph: str
    s: int
    nu: int
    cochord: int
    ba: int
    bounds: dict
    exact: Optional[ExactRegularity]
    oracle: Optional[int]
    char: int
    checks: List[CheckRecord] = field(default_factory=list)

    def has_failure(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph,
            "s": self.s,
            "nu": self.nu,
            "cochord": self.cochord,
            "ba": self.ba,
            "bounds": self.bounds,
            "exact": (
                {
                    "value": self.exact.value,
                    "class": self.exact.class_tag,
                    "all_classes": list(self.exact.all_tags),
                }
                if self.exact
                else None
            ),
            "oracle": self.oracle,
            "char": self.char,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [f"graph: {self.graph}", f"s: {self.s}"]
        lines.append(f"nu={self.nu} cochord={self.cochord} ba={self.ba}")
        lines.append(f"bounds: {self.bounds}")
        if self.exact:
            lines.append(
                f"exact: {self.exact.value} via {self.exact.class_tag}"
                f" (all: {', '.join(self.exact.all_tags)})"
            )
        lines.append(f"oracle: {self.oracle} (char {self.char})")
        for c in self.checks:
            lines.append(f"  [{c.status}] {c.citation}: {c.claim}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CheckConfig:
    s_values: tuple[int, ...] = (1, 2)
    max_multiset_size: int = 1
    oracle: bool = True
    power_recursion: bool = False
    char: int = 0


def _record(
    checks: List[CheckRecord], claim: str, tag: str, holds: bool, asserted: bool
) -> None:
    if asserted:
        status = "pass" if holds else "fail"
    else:
        status = "recorded-pass" if holds else "recorded-fail"
    checks.append(CheckRecord(claim, tag, status))


def _try_reg(ideal, char: int, caps: Caps) -> Optional[int]:
    try:
        return regularity(ideal, char, caps)
    except ResourceLimitError:
        return None


def check_theorems(
    g: Graph,
    config: Optional[CheckConfig] = None,
    caps: Optional[Caps] = None,
) -> List[RegularityReport]:
    """Evaluate every bound, class formula, and preservation claim on g.

    One report per s in the config; claims whose hypotheses fail here are
    recorded rather than asserted.  Assertion failures become records with
    status "fail" and the offending values in the claim text.
    """
    config = config or CheckConfig()
    caps = caps or default_caps()
    char = config.char
    p = GraphProfile(g, caps, char)
    profiles: Dict[Graph, GraphProfile] = {g: p}
    bip = p.sides is not None
    nu = p.nu
    cochord = p.cochord
    ba = min_maximal_matching_number(g, caps)
    reports = []
    for s in config.s_values:
        checks: List[CheckRecord] = []
        lower = 2 * s + nu - 1
        cochord_upper = 2 * s + cochord - 1
        matching_upper = 2 * s + ba - 1
        proven = upper_bounds_proven(g, s)
        bip_bound = p.bipartition_bound(s) if bip else None
        russ = russ_lower_bound(g, s, caps)
        bounds = {
            "lower": lower,
            "russ_lower": russ,
            "cochord_upper": {"value": cochord_upper, "proven": proven},
            "matching_upper": {"value": matching_upper, "proven": proven},
            "bipartition_upper": (
                {"value": str(bip_bound.value), "floor": bip_bound.floor}
                if bip_bound
                else None
            ),
        }
        _record(
            checks,
            f"nu={nu} <= cochord={cochord} <= ba={ba}",
            "invariant-chain",
            nu <= cochord <= ba,
            True,
        )
        exact = p.exact_class(s)
        oracle = None
        if config.oracle and g.edges:
            if s == 1:
                oracle = p.reg
            else:
                try:
                    oracle = reg_power(g, s, char, caps)
                except ResourceLimitError:
                    oracle = None
        if oracle is not None:
            _record(
                checks,
                f"lower bound {lower} <= oracle {oracle}",
                "power-lower",
                lower <= oracle,
                True,
            )
            _record(
                checks,
                f"subgraph lower bound {russ} <= oracle {oracle}",
                "power-lower-subgraph",
                russ <= oracle,
                True,
            )
            _record(
                checks,
                f"oracle {oracle} <= cochord bound {cochord_upper}",
                "power-upper-cochord",
                oracle <= cochord_upper,
                proven,
            )
            _record(
                checks,
                f"oracle {oracle} <= matching bound {matching_upper}",
                "power-upper-matching",
                oracle <= matching_upper,
                proven,
            )
            if bip_bound is not None:
                _record(
                    checks,
                    f"oracle {oracle} <= bipartition bound {bip_bound.value}",
                    "power-upper-bipartition",
                    Fraction(oracle) <= bip_bound.value,
                    True,
                )
            if exact is not None:
                _record(
                    checks,
                    f"class {exact.class_tag} value {exact.value}"
                    f" == oracle {oracle}",
                    "exact-class-value",
                    exact.value == oracle,
                    True,
                )
            if "dim-bipartite" in p.class_tags:
                _record(
                    checks,
                    f"dominating-induced-matching value {2 * s + nu - 1}"
                    f" == oracle {oracle}",
                    "dim-exactness",
                    2 * s + nu - 1 == oracle,
                    True,
                )
        if config.power_recursion and oracle is not None and s >= 2:
            _power_recursion_check(g, s, char, caps, checks)
        if g.edges and s <= config.max_multiset_size:
            for multiset in combinations_with_replacement(g.edges, s):
                try:
                    _multiset_checks(p, multiset, checks, profiles, config.oracle)
                except ResourceLimitError:
                    continue
        reports.append(
            RegularityReport(
                graph=graph_id(g),
                s=s,
                nu=nu,
                cochord=cochord,
                ba=ba,
                bounds=bounds,
                exact=exact,
                oracle=oracle,
                char=char,
                checks=checks,
            )
        )
    return reports


def _power_recursion_check(
    g: Graph, s: int, char: int, caps: Caps, checks: List[CheckRecord]
) -> None:
    """reg(I^s) is at most the max of reg(I^s : m) + 2(s-1) over the minimal
    generators m of I^(s-1), and reg(I^(s-1))."""
    ideal = edge_ideal(g)
    big = power(ideal, s, caps)
    small = power(ideal, s - 1, caps)
    reg_big = _try_reg(big, char, caps)
    reg_small = _try_reg(small, char, caps)
    if reg_big is None or reg_small is None:
        return
    colon_regs = []
    for m in small.generators:
        r = _try_reg(colon_by_monomial(big, m), char, caps)
        if r is None:
            return
        colon_regs.append(r + 2 * (s - 1))
    bound = max(colon_regs + [reg_small])
    _record(
        checks,
        f"reg(I^{s}) = {reg_big} <= max(colon regs + 2(s-1), reg(I^{s - 1}))"
        f" = {bound}",
        "power-reg-recursion",
        reg_big <= bound,
        True,
    )


def _multiset_checks(
    p: GraphProfile,
    multiset: Sequence[tuple[str, str]],
    checks: List[CheckRecord],
    profiles: Dict[Graph, GraphProfile],
    oracle: bool,
) -> None:
    """The claims comparing g with the derived graph of (I^(s+1) : e_1...e_s);
    profiles holds one profile per graph met so far and gains the derived
    graph's."""
    g, caps = p.graph, p.caps
    bip = p.sides is not None
    label = ", ".join(f"{u}*{v}" for u, v in multiset)
    s = len(multiset)
    try:
        walk_route = gprime(g, multiset, caps)
        ideal_route = gprime_algebraic(g, multiset, caps)
    except ResourceLimitError:
        return
    _record(
        checks,
        f"derived graph routes agree for [{label}]",
        "derived-graph-routes",
        walk_route == ideal_route,
        True,
    )
    gp = walk_route
    q = profiles.setdefault(gp, GraphProfile(gp, caps, p.char))
    if bip:
        left, right = set(p.sides.left), set(p.sides.right)
        holds = q.sides is not None and not any(
            {u, v} <= left or {u, v} <= right for u, v in gp.edges
        )
        _record(
            checks,
            f"derived graph stays bipartite on the same sides for [{label}]",
            "derived-graph-bipartite",
            holds,
            True,
        )
    _record(
        checks,
        f"induced matching number {q.nu} of derived graph <= {p.nu} for [{label}]",
        "induced-matching-monotone",
        q.nu <= p.nu,
        True,
    )
    try:
        cochord_gp = q.cochord
    except ResourceLimitError:
        cochord_gp = None
    if cochord_gp is not None:
        _record(
            checks,
            f"cochord {cochord_gp} of derived graph <= {p.cochord} for [{label}]",
            "cochord-monotone",
            cochord_gp <= p.cochord,
            s == 1 or bip,
        )
    if p.unmixed:
        _record(
            checks,
            f"derived graph stays unmixed for [{label}]",
            "unmixed-preserved",
            q.unmixed,
            bip,
        )
    k = p.min_pk_free
    if k is not None:
        # P_j-free implies P_k-free for j <= k
        _record(
            checks,
            f"derived graph stays P{k}-free for [{label}]",
            f"p{k}-free-preserved",
            q.min_pk_free is not None and q.min_pk_free <= k,
            bip,
        )
    if oracle and p.reg is not None and q.reg is not None:
        _record(
            checks,
            f"colon regularity {q.reg} <= graph regularity {p.reg}"
            f" for [{label}]",
            "colon-reg-bounded",
            q.reg <= p.reg,
            # every bipartite class but the dominating-induced-matching one
            any(tag != "dim-bipartite" for tag in p.class_tags),
        )
    if s >= 2:
        ideal = edge_ideal(g)
        it = iterated_colon(ideal, list(multiset), caps)
        one, _ = polarize(
            colon_by_monomial(
                power(ideal, s + 1, caps),
                ideal.monomial("*".join(f"{u}*{v}" for u, v in multiset)),
            )
        )
        _record(
            checks,
            f"iterated colon equals one-shot colon for [{label}]",
            "iterated-colon-collapse",
            it == one,
            bip,
        )


# -- gap search ----------------------------------------------------------------


@dataclass
class GapReport:
    s: int
    total: int
    skipped: int
    strict: List[dict]
    distribution: Dict[int, Dict[int, int]]
    # graphs with reg above 2s + cochord - 1 where that bound is proven;
    # the command line reports them on stderr, so the report forms omit them
    upper_violations: List[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "total": self.total,
            "skipped": self.skipped,
            "strict": self.strict,
            "distribution": {
                str(n): {str(t): c for t, c in sorted(row.items())}
                for n, row in sorted(self.distribution.items())
            },
        }

    def to_text(self) -> str:
        lines = [
            f"graphs examined: {self.total} (skipped {self.skipped})",
            f"strict on both sides at s={self.s}: {len(self.strict)}",
        ]
        for item in self.strict:
            lines.append(
                f"  {item['graph']}  nu={item['nu']} cochord={item['cochord']}"
                f" reg={item['reg']}"
            )
        lines.append("distribution of reg - (2s + nu - 1) by cochord - nu:")
        for n, row in sorted(self.distribution.items()):
            cells = ", ".join(f"t={t}: {c}" for t, c in sorted(row.items()))
            lines.append(f"  gap {n}: {cells}")
        return "\n".join(lines)


def gap_search(
    graphs: Iterable[Graph],
    s: int,
    char: int = 0,
    caps: Optional[Caps] = None,
) -> GapReport:
    """Hunt for graphs strictly between the two matching-type bounds.

    For each graph the oracle regularity of the s-th power is compared
    with 2s+nu-1 and 2s+cochord-1; graphs strict on both sides are listed
    and the offset above the lower bound is tallied per value of
    cochord - nu.  Graphs above a proven 2s+cochord-1 are collected in
    upper_violations.
    """
    _check_s(s)
    caps = caps or default_caps()
    total = 0
    skipped = 0
    strict: List[dict] = []
    distribution: Dict[int, Dict[int, int]] = {}
    upper_violations: List[dict] = []
    for g in graphs:
        if not g.edges:
            continue
        total += 1
        try:
            nu = induced_matching_number(g, caps)
            cochord = cochordal_cover_number(g, caps)[0]
            reg = reg_power(g, s, char, caps)
        except ResourceLimitError:
            skipped += 1
            continue
        t = reg - (2 * s + nu - 1)
        n = cochord - nu
        distribution.setdefault(n, {})
        distribution[n][t] = distribution[n].get(t, 0) + 1
        item = {"graph": graph_id(g), "nu": nu, "cochord": cochord, "reg": reg}
        if 2 * s + nu - 1 < reg < 2 * s + cochord - 1:
            strict.append(item)
        if reg > 2 * s + cochord - 1 and upper_bounds_proven(g, s):
            upper_violations.append(item)
    return GapReport(s, total, skipped, strict, distribution, upper_violations)
