"""Graded Betti numbers of monomial ideals, exactly, by brute force.

For each multidegree b in the lcm lattice of the generators, the complex
whose faces are the squarefree vectors t <= b with x^(b-t) still in the
ideal is generated by one facet per dividing generator g, namely
{v : g_v < b_v}.  Its reduced homology in dimension i-1 gives the Betti
number in homological degree i and multidegree b.  Cones are skipped
outright and homology is memoized on the facet pattern, which keeps the
scan tractable for the graph-sized inputs this package targets.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .graphs import Graph
from .homology import SimplicialComplex, reduced_homology_ranks
from .limits import Caps, default_caps
from .monomials import Monomial, MonomialIdeal, edge_ideal, power


def lcm_lattice(
    ideal: MonomialIdeal, caps: Optional[Caps] = None
) -> List[Monomial]:
    """All least common multiples of nonempty generator subsets, sorted."""
    caps = caps or default_caps()
    gens = [g.exps for g in ideal.generators]
    found: set[tuple[int, ...]] = set(gens)
    frontier = list(found)
    while frontier:
        nxt = []
        for b in frontier:
            for g in gens:
                join = tuple(max(x, y) for x, y in zip(b, g))
                if join not in found:
                    found.add(join)
                    caps.check_lattice(len(found), "lcm lattice")
                    nxt.append(join)
        frontier = nxt
    ordered = sorted(found, key=lambda e: (sum(e), e))
    return [Monomial(e) for e in ordered]


def koszul_complex(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """Upper Koszul complex of the ideal at multidegree b.

    Vertices are the support positions of b in increasing variable order.
    """
    support = b.support()
    local = {v: i for i, v in enumerate(support)}
    masks = []
    for g in ideal.generators:
        if g.divides(b):
            m = 0
            for v in support:
                if g.exps[v] < b.exps[v]:
                    m |= 1 << local[v]
            masks.append(m)
    return SimplicialComplex.from_masks(len(support), masks)


class BettiTable:
    """Total graded Betti numbers of an ideal over a fixed coefficient field."""

    __slots__ = ("entries", "char")

    def __init__(self, entries: Dict[tuple[int, int], int], char: int) -> None:
        self.entries = {k: v for k, v in sorted(entries.items()) if v}
        self.char = char

    def rank(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def regularity(self) -> int:
        """Largest j - i over the nonzero entries."""
        if not self.entries:
            raise ValueError("the zero ideal has no regularity")
        return max(j - i for i, j in self.entries)

    def projective_dimension(self) -> int:
        if not self.entries:
            raise ValueError("the zero ideal has no projective dimension")
        return max(i for i, _ in self.entries)

    def rows(self) -> List[dict]:
        return [
            {"i": i, "j": j, "rank": r} for (i, j), r in self.entries.items()
        ]

    def to_json_dict(self) -> dict:
        return {"char": self.char, "entries": self.rows()}

    def to_text(self) -> str:
        """Triangle with one column per homological degree i and one row
        per strand j - i."""
        if not self.entries:
            return "empty Betti table"
        cols = sorted({i for i, _ in self.entries})
        strands = sorted({j - i for i, j in self.entries})
        header = ["strand"] + [str(i) for i in cols]
        lines = []
        for t in strands:
            row = [str(t)]
            for i in cols:
                r = self.entries.get((i, i + t), 0)
                row.append(str(r) if r else ".")
            lines.append(row)
        widths = [max(len(line[k]) for line in [header] + lines) for k in range(len(header))]
        out = []
        for line in [header] + lines:
            out.append("  ".join(s.rjust(w) for s, w in zip(line, widths)))
        return "\n".join(out)


def betti_table(
    ideal: MonomialIdeal,
    char: int = 0,
    caps: Optional[Caps] = None,
    *,
    check: bool = False,
) -> BettiTable:
    """Betti table of the ideal itself (homological degree 0 = generators)."""
    caps = caps or default_caps()
    entries: Dict[tuple[int, int], int] = {}
    memo: Dict[tuple[int, tuple[int, ...]], Dict[int, int]] = {}
    for b in lcm_lattice(ideal, caps):
        complex_ = koszul_complex(ideal, b)
        if complex_.is_cone():
            continue
        key = (complex_.n_vertices, complex_.facet_masks)
        ranks = memo.get(key)
        if ranks is None:
            ranks = reduced_homology_ranks(complex_, char, check=check)
            memo[key] = ranks
        degree = b.degree
        for d, r in ranks.items():
            if r:
                spot = (d + 1, degree)
                entries[spot] = entries.get(spot, 0) + r
    return BettiTable(entries, char)


def regularity(
    ideal: MonomialIdeal,
    char: int = 0,
    caps: Optional[Caps] = None,
) -> int:
    """Castelnuovo-Mumford regularity of the ideal (not of the quotient)."""
    if ideal.is_zero():
        raise ValueError("the zero ideal has no regularity")
    return betti_table(ideal, char, caps).regularity()


def reg_power(
    g: Graph,
    s: int,
    char: int = 0,
    caps: Optional[Caps] = None,
) -> int:
    """Regularity of the s-th power of the edge ideal of g."""
    if s < 1:
        raise ValueError(f"power exponent must be >= 1, got {s}")
    if not g.edges:
        raise ValueError("the graph has no edges, so its edge ideal is zero")
    caps = caps or default_caps()
    caps.check_graph(g.n_vertices, g.n_edges, "reg_power")
    return regularity(power(edge_ideal(g), s, caps), char, caps)


def has_linear_resolution(
    ideal: MonomialIdeal,
    char: int = 0,
    caps: Optional[Caps] = None,
) -> bool:
    """True when every Betti entry sits in degree i + (generator degree)."""
    if ideal.is_zero():
        raise ValueError("the zero ideal has no resolution to inspect")
    degrees = set(ideal.generator_degrees())
    if len(degrees) != 1:
        raise ValueError(
            f"generators have mixed degrees {sorted(degrees)};"
            " linear resolution is undefined"
        )
    d = degrees.pop()
    table = betti_table(ideal, char, caps)
    return all(j == i + d for i, j in table.entries)
