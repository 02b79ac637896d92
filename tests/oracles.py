"""Independent brute-force reference implementations.

Everything here recomputes package outputs from first principles with the
plainest correct algorithm available (subset enumeration, dense Fraction
elimination, walk enumeration), sharing no code with the library routines
they check.  Slow on purpose; only run on small inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from edgeideal.graphs import Graph
from edgeideal.monomials import MonomialIdeal

Edge = Tuple[str, str]


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    verts = [f"x{i}" for i in range(1, n + 1)]
    edges = [
        (verts[i], verts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(verts, edges)


def edge_subsets(g: Graph) -> Iterable[Tuple[Edge, ...]]:
    for r in range(len(g.edges) + 1):
        yield from itertools.combinations(g.edges, r)


def is_disjoint(edges: Sequence[Edge]) -> bool:
    seen: Set[str] = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


def matched_vertices(edges: Sequence[Edge]) -> Set[str]:
    out: Set[str] = set()
    for u, v in edges:
        out.update((u, v))
    return out


def brute_matching_number(g: Graph) -> int:
    return max(len(m) for m in edge_subsets(g) if is_disjoint(m))


def brute_maximal_matchings(g: Graph) -> List[Tuple[Edge, ...]]:
    out = []
    for m in edge_subsets(g):
        if not is_disjoint(m):
            continue
        covered = matched_vertices(m)
        if all(u in covered or v in covered for u, v in g.edges):
            out.append(m)
    return out


def brute_min_maximal_matching_number(g: Graph) -> int:
    sizes = [len(m) for m in brute_maximal_matchings(g)]
    return min(sizes) if sizes else 0


def brute_induced_matching_number(g: Graph) -> int:
    best = 0
    for m in edge_subsets(g):
        if not is_disjoint(m):
            continue
        covered = matched_vertices(m)
        inside = sum(1 for u, v in g.edges if u in covered and v in covered)
        if inside == len(m):
            best = max(best, len(m))
    return best


def brute_independence_number(g: Graph) -> int:
    best = 0
    verts = list(g.vertices)
    for r in range(len(verts), -1, -1):
        for s in itertools.combinations(verts, r):
            chosen = set(s)
            if not any(u in chosen and v in chosen for u, v in g.edges):
                return r
    return best


def brute_minimal_vertex_covers(g: Graph) -> List[Tuple[str, ...]]:
    def covers(s: Set[str]) -> bool:
        return all(u in s or v in s for u, v in g.edges)

    out = []
    verts = list(g.vertices)
    for r in range(len(verts) + 1):
        for s in itertools.combinations(verts, r):
            chosen = set(s)
            if covers(chosen) and all(not covers(chosen - {v}) for v in s):
                out.append(s)
    return out


def brute_is_unmixed(g: Graph) -> bool:
    return len({len(c) for c in brute_minimal_vertex_covers(g)}) <= 1


def brute_has_dominating_induced_matching(g: Graph) -> bool:
    for m in edge_subsets(g):
        if not is_disjoint(m):
            continue
        covered = matched_vertices(m)
        inside = sum(1 for u, v in g.edges if u in covered and v in covered)
        if inside != len(m):
            continue
        if all(u in covered or v in covered for u, v in g.edges):
            return True
    return False


def _induces_cycle(g: Graph, verts: Sequence[str]) -> bool:
    chosen = set(verts)
    inside = [(u, v) for u, v in g.edges if u in chosen and v in chosen]
    if len(inside) != len(chosen):
        return False
    deg: Dict[str, int] = {v: 0 for v in chosen}
    for u, v in inside:
        deg[u] += 1
        deg[v] += 1
    if any(d != 2 for d in deg.values()):
        return False
    # connected 2-regular graph on the subset = one cycle
    start = next(iter(chosen))
    seen = {start}
    stack = [start]
    adj: Dict[str, List[str]] = {v: [] for v in chosen}
    for u, v in inside:
        adj[u].append(v)
        adj[v].append(u)
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == chosen


def brute_is_chordal(g: Graph) -> bool:
    verts = list(g.vertices)
    for r in range(4, len(verts) + 1):
        for s in itertools.combinations(verts, r):
            if _induces_cycle(g, s):
                return False
    return True


def brute_complement(g: Graph) -> Graph:
    verts = list(g.vertices)
    edges = [
        (verts[i], verts[j])
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if not g.has_edge(verts[i], verts[j])
    ]
    return Graph(verts, edges)


def brute_is_cochordal(g: Graph) -> bool:
    return brute_is_chordal(brute_complement(g))


def brute_cochordal_cover_number(g: Graph) -> int:
    """Exact set cover over all cochordal edge subsets; exponential."""
    if not g.edges:
        return 0
    edges = list(g.edges)
    m = len(edges)
    parts = []
    for mask in range(1, 1 << m):
        chosen = [edges[i] for i in range(m) if (mask >> i) & 1]
        support = sorted(matched_vertices(chosen), key=g.index)
        if brute_is_cochordal(Graph(support, chosen)):
            parts.append(mask)
    full = (1 << m) - 1
    reached = {0}
    for k in range(1, m + 1):
        nxt = set()
        for state in reached:
            for part in parts:
                grown = state | part
                if grown == full:
                    return k
                nxt.add(grown)
        reached = nxt
    raise AssertionError("single edges are cochordal, so a cover exists")


def brute_minimal_fills(g: Graph) -> List[int]:
    """Inclusion-minimal F (bitmasks over g.edges) with complement(g) + F
    chordal, by a size-ordered subset scan: by size, then by the ascending
    tuple of edge indices."""
    comp = brute_complement(g)
    edges = list(g.edges)
    found: List[int] = []
    for size in range(len(edges) + 1):
        for combo in itertools.combinations(range(len(edges)), size):
            mask = sum(1 << i for i in combo)
            if any(mask & f == f for f in found):
                continue
            filled = Graph(comp.vertices, list(comp.edges) + [edges[i] for i in combo])
            if brute_is_chordal(filled):
                found.append(mask)
    return found


def brute_is_pk_free(g: Graph, k: int) -> bool:
    for s in itertools.permutations(g.vertices, k):
        path_ok = all(g.has_edge(s[i], s[i + 1]) for i in range(k - 1))
        if not path_ok:
            continue
        chords = any(
            g.has_edge(s[i], s[j])
            for i in range(k)
            for j in range(i + 2, k)
        )
        if not chords:
            return False
    return True


def brute_even_connected(
    g: Graph, u: str, v: str, multiset: Sequence[Edge]
) -> bool:
    """Walk enumeration straight from the even-connection definition."""
    norm = [tuple(sorted(e, key=g.index)) for e in multiset]
    s = len(norm)
    for k in range(1, s + 1):
        length = 2 * k + 2
        for walk in itertools.product(g.vertices, repeat=length):
            if not (walk[0] == u and walk[-1] == v):
                continue
            if not all(g.has_edge(walk[i], walk[i + 1]) for i in range(length - 1)):
                continue
            middles = [
                tuple(sorted((walk[2 * l + 1], walk[2 * l + 2]), key=g.index))
                for l in range(k)
            ]
            for assign in itertools.permutations(range(s), k):
                if all(norm[assign[l]] == middles[l] for l in range(k)):
                    return True
    return False


def fraction_rank(rows: List[List[int]], char: int = 0) -> int:
    """Dense Gaussian elimination over Q or GF(char)."""
    if not rows or not rows[0]:
        return 0
    if char == 0:
        mat = [[Fraction(x) for x in row] for row in rows]
    else:
        mat = [[x % char for x in row] for row in rows]
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    for col in range(n_cols):
        pivot = next(
            (r for r in range(rank, n_rows) if mat[r][col] != 0), None
        )
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = (
            Fraction(1) / mat[rank][col]
            if char == 0
            else pow(mat[rank][col], -1, char)
        )
        mat[rank] = [
            x * inv if char == 0 else (x * inv) % char for x in mat[rank]
        ]
        for r in range(n_rows):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [
                    a - factor * b if char == 0 else (a - factor * b) % char
                    for a, b in zip(mat[r], mat[rank])
                ]
        rank += 1
    return rank


def taylor_betti(ideal: MonomialIdeal, char: int = 0) -> Dict[Tuple[int, int], int]:
    """Graded Betti numbers of the ideal from the Taylor resolution of R/I.

    Tensoring the Taylor complex with the residue field keeps exactly the
    differential terms that drop no variable from the lcm; homology of the
    multidegree-b strand gives beta_{i,b}(R/I), and beta_i(I) = beta_{i+1}(R/I).
    """
    gens = [m.exps for m in ideal.generators]
    n = len(gens)
    lcm_of: Dict[Tuple[int, ...], Tuple[int, ...]] = {(): tuple([0] * len(ideal.variables))}
    subsets_by_lcm: Dict[Tuple[int, ...], Dict[int, List[Tuple[int, ...]]]] = {}
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            lcm = tuple(max(col) for col in zip(*(gens[i] for i in subset)))
            lcm_of[subset] = lcm
            subsets_by_lcm.setdefault(lcm, {}).setdefault(r, []).append(subset)

    betti_quotient: Dict[Tuple[int, int], int] = {}
    for b, by_size in subsets_by_lcm.items():
        degree = sum(b)
        sizes = sorted(by_size)
        ranks: Dict[int, int] = {}
        for r in sizes:
            lower = by_size.get(r - 1, [])
            if not lower:
                ranks[r] = 0
                continue
            index = {s: i for i, s in enumerate(lower)}
            rows = []
            for subset in by_size[r]:
                row = [0] * len(lower)
                for pos, gi in enumerate(subset):
                    smaller = subset[:pos] + subset[pos + 1 :]
                    if lcm_of[smaller] == b:
                        row[index[smaller]] = (-1) ** pos
                rows.append(row)
            ranks[r] = fraction_rank(rows, char)
        for r in sizes:
            h = len(by_size[r]) - ranks.get(r, 0) - ranks.get(r + 1, 0)
            if h:
                betti_quotient[(r, degree)] = betti_quotient.get((r, degree), 0) + h
    return {(i - 1, j): v for (i, j), v in betti_quotient.items()}


def taylor_regularity(ideal: MonomialIdeal, char: int = 0) -> int:
    table = taylor_betti(ideal, char)
    return max(j - i for i, j in table)
