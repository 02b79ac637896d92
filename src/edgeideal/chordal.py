"""Chordality predicates, co-chordal covers, and dual shellings.

cochordal_cover_number is exact: maximal co-chordal subgraphs of G are
exactly the complements of minimal triangulations of the complement of G,
so the cover number is the least number of minimal fill sets (over the
candidate edges E(G)) whose intersection is empty. Every minimal
triangulation comes from some vertex elimination ordering, so the minimal
fills are enumerated by one memoized elimination recursion, bounded by
_MAX_FILL_STATES. tests/test_chordal.py checks the cover number against a
brute-force oracle on every connected graph with up to six vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .graphs import Graph, complement, induced_subgraph, is_bipartite
from .invariants import minimum_maximal_matching
from .limits import Caps, ResourceLimitError, default_caps

Edge = tuple[str, str]


@dataclass(frozen=True)
class CochordalCover:
    """Edge-subset parts, each co-chordal, jointly covering E(G)."""

    parts: tuple[tuple[Edge, ...], ...]

    @property
    def size(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class DualShelling:
    """Edge order whose every prefix graph has no induced pair of disjoint
    edges with no connecting prefix edge."""

    order: tuple[Edge, ...]


# -- chordality ----------------------------------------------------------------


def _mcs_is_chordal(adj: Sequence[int], active: int) -> bool:
    """Maximum cardinality search + perfect elimination check on a bitmask
    adjacency, restricted to the `active` vertex set."""
    n = len(adj)
    verts = [v for v in range(n) if (active >> v) & 1]
    if len(verts) <= 2:
        return True
    weight = {v: 0 for v in verts}
    order: list[int] = []
    in_order = 0
    for _ in verts:
        best = max(
            (v for v in verts if not (in_order >> v) & 1),
            key=lambda v: (weight[v], -v),
        )
        order.append(best)
        in_order |= 1 << best
        nbrs = adj[best] & active & ~in_order
        while nbrs:
            w = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            weight[w] += 1
    # reverse of the MCS visit order is the elimination order
    order.reverse()
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [w for w in order[i + 1 :] if (adj[v] >> w) & 1]
        if not later:
            continue
        parent = min(later, key=pos.__getitem__)
        for w in later:
            if w != parent and not (adj[parent] >> w) & 1:
                return False
    return True


def is_chordal(g: Graph) -> bool:
    """No induced cycle of length four or more."""
    adj = g.adjacency_masks()
    return _mcs_is_chordal(adj, (1 << g.n_vertices) - 1)


def is_cochordal(g: Graph) -> bool:
    """Complement is chordal (isolated vertices are immaterial)."""
    return is_chordal(complement(g))


def _chordless_cycles(g: Graph, min_length: int) -> Iterator[tuple[int, ...]]:
    """Every chordless cycle on at least min_length vertices, once each, as
    vertex indices: it starts at its smallest index and is oriented so the
    second vertex has a smaller index than the last.  The search is depth
    first and lazy, so a caller that stops at the first cycle cuts it short.
    """
    adj = g.adjacency_masks()

    def extend(
        start: int, path: list[int], used: int, interior_adj: int
    ) -> Iterator[tuple[int, ...]]:
        last = path[-1]
        live = adj[last] & ~used
        while live:
            w = (live & -live).bit_length() - 1
            live &= live - 1
            if w < start or (interior_adj >> w) & 1:
                continue
            if len(path) >= 2 and (adj[w] >> start) & 1:
                if len(path) + 1 >= min_length and path[1] < w:
                    yield tuple(path) + (w,)
                # going on past w would leave the chord w-start
                continue
            # start never counts as interior: adjacency to it means closing
            grown = interior_adj if len(path) == 1 else interior_adj | adj[last]
            path.append(w)
            yield from extend(start, path, used | (1 << w), grown)
            path.pop()

    for start in range(g.n_vertices):
        yield from extend(start, [start], 1 << start, 0)


def has_induced_cycle_at_least(g: Graph, length: int) -> bool:
    """Any induced (chordless) cycle on >= `length` vertices? length >= 4."""
    if length < 4:
        raise ValueError(f"length must be at least 4, got {length}")
    return next(_chordless_cycles(g, length), None) is not None


def induced_cycles(g: Graph, min_length: int = 3) -> list[tuple[str, ...]]:
    """Every chordless cycle with at least min_length vertices, once each.

    Cycles are reported starting at their smallest vertex index, oriented
    so the second vertex has a smaller index than the last, and sorted.
    """
    if min_length < 3:
        raise ValueError(f"min_length must be at least 3, got {min_length}")
    found = sorted(_chordless_cycles(g, min_length), key=lambda c: (len(c), c))
    return [tuple(g.vertices[i] for i in c) for c in found]


def is_weakly_chordal(g: Graph) -> bool:
    """No induced cycle of length five or more in g or its complement."""
    return not has_induced_cycle_at_least(g, 5) and not has_induced_cycle_at_least(
        complement(g), 5
    )


def is_chordal_bipartite(g: Graph) -> bool:
    """Bipartite with no induced cycle of length six or more."""
    return is_bipartite(g) and not has_induced_cycle_at_least(g, 6)


# -- minimal fills of the complement ------------------------------------------


# distinct elimination states one minimal-fill search may visit
_MAX_FILL_STATES = 500000


def _minimal_fills_elimination(
    base_adj: list[int],
    fill_index: dict[tuple[int, int], int],
    active: int,
) -> frozenset[int]:
    """All minimal fills via memoized vertex elimination.

    Every minimal triangulation is produced by some elimination ordering;
    ordering fills are collected and reduced to their inclusion-minimal
    members. Simplicial vertices are eliminated eagerly (they never carry
    fill edges in a minimal triangulation).
    """
    n = len(base_adj)
    memo: dict[tuple, frozenset[int]] = {}
    states = 0

    def key_of(adj: tuple[int, ...], act: int) -> tuple:
        return (act, tuple(adj[v] & act for v in range(n) if (act >> v) & 1))

    def eliminate(adj: list[int], act: int, v: int) -> tuple[list[int], int, int]:
        """Clique-ify N(v), drop v; returns (adjacency, active, fill bitmask)."""
        nbrs = adj[v] & act
        fill = 0
        new_adj = list(adj)
        live = nbrs
        while live:
            a = (live & -live).bit_length() - 1
            live &= live - 1
            rest = nbrs & ~((1 << (a + 1)) - 1)
            while rest:
                b = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not (new_adj[a] >> b) & 1:
                    new_adj[a] |= 1 << b
                    new_adj[b] |= 1 << a
                    fill |= 1 << fill_index[(a, b)]
        return new_adj, act & ~(1 << v), fill

    def simplicial(adj: Sequence[int], act: int, v: int) -> bool:
        nbrs = adj[v] & act
        live = nbrs
        while live:
            a = (live & -live).bit_length() - 1
            live &= live - 1
            if nbrs & ~adj[a] & ~(1 << a):
                return False
        return True

    def solve(adj: list[int], act: int) -> frozenset[int]:
        nonlocal states
        # strip simplicial vertices first: no fill, no branching needed
        changed = True
        while changed:
            changed = False
            live = act
            while live:
                v = (live & -live).bit_length() - 1
                live &= live - 1
                if simplicial(adj, act, v):
                    act &= ~(1 << v)
                    changed = True
        if not act:
            return frozenset([0])
        key = key_of(tuple(adj), act)
        if key in memo:
            return memo[key]
        states += 1
        if states > _MAX_FILL_STATES:
            raise ResourceLimitError(
                f"cochordal cover search: elimination state count exceeds "
                f"_MAX_FILL_STATES ({_MAX_FILL_STATES})"
            )
        fills: set[int] = set()
        live = act
        while live:
            v = (live & -live).bit_length() - 1
            live &= live - 1
            new_adj, new_act, fill = eliminate(adj, act, v)
            for rest in solve(new_adj, new_act):
                fills.add(fill | rest)
        result = frozenset(_minimalize(fills))
        memo[key] = result
        return result

    return solve(list(base_adj), active)


def _minimalize(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal members of a family of bitmasks."""
    out: list[int] = []
    for m in sorted(masks, key=lambda x: (bin(x).count("1"), x)):
        if not any(m & kept == kept for kept in out):
            out.append(m)
    return out


def _minimal_fills_of_complement(g: Graph) -> list[int]:
    """Minimal fills (bitmasks over g.edges) turning complement(g) chordal.

    Ordered by size, then by the ascending tuple of their edge indices; the
    cover witness is picked by position in this list.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    fill_index = {(index[u], index[v]): i for i, (u, v) in enumerate(g.edges)}
    n, m = g.n_vertices, g.n_edges
    full = (1 << n) - 1
    base_adj = [full & ~a & ~(1 << v) for v, a in enumerate(g.adjacency_masks())]
    fills = _minimal_fills_elimination(base_adj, fill_index, full)
    return sorted(
        fills,
        key=lambda f: (bin(f).count("1"), [i for i in range(m) if (f >> i) & 1]),
    )


def _min_empty_intersection(fills: list[int]) -> Optional[list[int]]:
    """Fewest fills whose AND is zero, as indices; None if impossible.

    Breadth-first over intersection masks; a mask that contains an
    already-kept mask is dominated (the subset reaches zero at least as
    fast) and is pruned.
    """
    if not fills:
        return None
    parents: dict[int, tuple[Optional[int], int]] = {}
    kept: list[int] = []
    frontier: list[int] = []
    for i, f in enumerate(fills):
        if f not in parents:
            parents[f] = (None, i)
            frontier.append(f)
            kept.append(f)
    while frontier:
        if 0 in parents:
            chain: list[int] = []
            mask = 0
            while True:
                prev, idx = parents[mask]
                chain.append(idx)
                if prev is None:
                    break
                mask = prev
            return sorted(chain)
        next_frontier: list[int] = []
        for mask in sorted(frontier):
            for i, f in enumerate(fills):
                nm = mask & f
                if nm == mask or nm in parents:
                    continue
                if any(nm & k == k for k in kept):
                    continue
                parents[nm] = (mask, i)
                next_frontier.append(nm)
                kept.append(nm)
        frontier = next_frontier
    return None


def cochordal_cover_number(
    g: Graph, caps: Optional[Caps] = None
) -> tuple[int, CochordalCover]:
    """Least number of co-chordal edge subsets covering E(g), with a witness.

    Additive over connected components: no co-chordal part can span two
    components (two disjoint edges with no connection are never co-chordal).
    """
    caps = caps or default_caps()
    caps.check_graph(g.n_vertices, g.n_edges, "cochordal_cover_number")
    parts: list[tuple[Edge, ...]] = []
    total = 0
    for comp_verts in g.components():
        sub = induced_subgraph(g, comp_verts)
        if sub.n_edges == 0:
            continue
        if is_cochordal(sub):
            total += 1
            parts.append(sub.edges)
            continue
        fills = _minimal_fills_of_complement(sub)
        chain = _min_empty_intersection(fills)
        if chain is None:
            raise RuntimeError("no finite co-chordal cover found; impossible")
        total += len(chain)
        for idx in chain:
            fill = fills[idx]
            part = tuple(
                e for i, e in enumerate(sub.edges) if not (fill >> i) & 1
            )
            parts.append(part)
    return total, CochordalCover(parts=tuple(parts))


def star_cover(g: Graph, caps: Optional[Caps] = None) -> CochordalCover:
    """Cover by double stars around a minimum maximal matching.

    Each part is the set of edges meeting one matching edge (first match
    wins), so the cover size equals the minimum maximal matching number.
    """
    matching = minimum_maximal_matching(g, caps)
    assigned: set[Edge] = set()
    parts: list[tuple[Edge, ...]] = []
    for a, b in matching:
        part = []
        for e in g.edges:
            if e in assigned:
                continue
            if a in e or b in e:
                part.append(e)
                assigned.add(e)
        parts.append(tuple(part))
    return CochordalCover(parts=tuple(parts))


def is_cochordal_edge_subset(g: Graph, edges: Sequence[Edge]) -> bool:
    """Checker: the subgraph on these edges (support vertices) is co-chordal."""
    seen = {w for e in edges for w in e}
    sub = Graph(sorted(seen, key=g.index), edges)
    return is_cochordal(sub)


def is_cochordal_cover(g: Graph, cover: CochordalCover) -> bool:
    """Checker: parts are co-chordal edge subsets and cover E(g)."""
    covered: set[Edge] = set()
    for part in cover.parts:
        for e in part:
            u, v = e
            if not g.has_edge(u, v):
                return False
        if not is_cochordal_edge_subset(g, part):
            return False
        covered.update(part)
    return covered == set(g.edges)


# -- dual shellings ------------------------------------------------------------


def dual_shelling(
    g: Graph, caps: Optional[Caps] = None
) -> Optional[DualShelling]:
    """Edge ordering with every prefix free of induced disjoint edge pairs,
    or None. Such an ordering exists exactly when g is co-chordal."""
    caps = caps or default_caps()
    caps.check_graph(g.n_vertices, g.n_edges, "dual_shelling")
    # no order exists for a non-co-chordal graph; skip the exhaustive proof
    if g.edges and not is_cochordal(g):
        return None
    idx = [(g.index(u), g.index(v)) for u, v in g.edges]
    m = len(idx)
    dead: set[int] = set()

    def meets(e: tuple[int, int], f: tuple[int, int]) -> bool:
        return e[0] in f or e[1] in f

    def connects(gidx: tuple[int, int], e: tuple[int, int], f: tuple[int, int]) -> bool:
        a, b = gidx
        return (a in e and b in f) or (a in f and b in e)

    def can_add(chosen: list[int], chosen_mask: int, i: int) -> bool:
        e = idx[i]
        for j in chosen:
            f = idx[j]
            if meets(e, f):
                continue
            if not any(connects(idx[k], e, f) for k in chosen):
                return False
        return True

    def search(chosen: list[int], chosen_mask: int) -> Optional[list[int]]:
        if len(chosen) == m:
            return chosen.copy()
        if chosen_mask in dead:
            return None
        for i in range(m):
            if (chosen_mask >> i) & 1:
                continue
            if can_add(chosen, chosen_mask, i):
                chosen.append(i)
                got = search(chosen, chosen_mask | (1 << i))
                chosen.pop()
                if got is not None:
                    return got
        dead.add(chosen_mask)
        return None

    got = search([], 0)
    if got is None:
        return None
    return DualShelling(order=tuple(g.edges[i] for i in got))


def is_dual_shelling(g: Graph, shelling: DualShelling) -> bool:
    """Checker: permutation of E(g); every prefix graph has no two disjoint
    edges without a prefix edge joining them."""
    if sorted(shelling.order) != sorted(g.edges):
        return False
    prefix: list[Edge] = []
    for e in shelling.order:
        prefix.append(e)
        for i, f1 in enumerate(prefix):
            for f2 in prefix[i + 1 :]:
                if set(f1) & set(f2):
                    continue
                joined = any(
                    (h[0] in f1 and h[1] in f2) or (h[0] in f2 and h[1] in f1)
                    for h in prefix
                )
                if not joined:
                    return False
    return True
