"""Graded Betti numbers of monomial ideals, exactly, by brute force.

For each multidegree b in the lcm lattice of the generators, the complex
whose faces are the squarefree vectors t <= b with x^(b-t) still in the
ideal is generated by one facet per dividing generator g, namely
{v : g_v < b_v}.  Its reduced homology in dimension i-1 gives the Betti
number in homological degree i and multidegree b.

The kernel packs each exponent vector into one int, so the lattice join
is a SWAR max and divisibility and facets are a subtract and a mask.
Cones are skipped outright.  Every other complex is strongly collapsed
to its core before any rank is taken; homology is memoized on the
maximal facets and again on the renumbered core, and a core that is a
single simplex needs no rank at all.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Dict, List, Optional

from .graphs import Graph
from .homology import (
    SimplicialComplex,
    _check_char,
    _maximal_masks,
    _strong_collapse,
    reduced_homology_ranks,
)
from .limits import Caps, default_caps
from .monomials import Monomial, MonomialIdeal, edge_ideal, power


class _Packed:
    """The generators of one ideal as packed exponent vectors.

    Variable i owns bits [i*w, (i+1)*w) of an int.  The top bit of each
    field is a guard bit, always 0 in a packed vector, that stops a
    borrow from crossing into the next field.  The width w is one more
    than the bit length of the largest exponent, so any exponent fits.
    """

    __slots__ = ("n", "width", "guards", "values", "gens")

    def __init__(self, ideal: MonomialIdeal, top: int = 0) -> None:
        for g in ideal.generators:
            top = max(top, *g.exps, 0)
        w = top.bit_length() + 1
        self.n = len(ideal.variables)
        self.width = w
        self.guards = sum(1 << (i * w + w - 1) for i in range(self.n))
        self.values = self.guards - (self.guards >> (w - 1))
        self.gens = [self.pack(g.exps) for g in ideal.generators]

    def pack(self, exps: tuple[int, ...]) -> int:
        return sum(e << (i * self.width) for i, e in enumerate(exps))

    def unpack(self, b: int) -> tuple[int, ...]:
        w = self.width
        field = (1 << w) - 1
        return tuple((b >> (i * w)) & field for i in range(self.n))

    def lattice(self, caps: Caps) -> set[int]:
        """All lcms of nonempty generator subsets."""
        guards, shift, gens = self.guards, self.width - 1, self.gens
        found = set(gens)
        frontier = list(found)
        while frontier:
            nxt = []
            for b in frontier:
                high = b | guards
                for g in gens:
                    # field v of diff is b_v - g_v plus its guard bit, and
                    # the guard bit survives exactly where b_v >= g_v
                    diff = high - g
                    ge = diff & guards
                    if ge == guards:
                        continue  # g divides b
                    join = g + (diff & (ge - (ge >> shift)))
                    if join not in found:
                        found.add(join)
                        caps.check_lattice(len(found), "lcm lattice")
                        nxt.append(join)
            frontier = nxt
        return found

    def facets(self, b: int) -> List[int]:
        """Facet {v : g_v < b_v} of each generator g dividing b, as a mask
        of the guard bits of its variables."""
        guards, values = self.guards, self.values
        high = b | guards
        out = []
        for g in self.gens:
            diff = high - g
            if diff & guards == guards:
                out.append(((diff & values) + values) & guards)
        return out

    def to_local(self, facet: int, support: tuple[int, ...]) -> int:
        """The same facet as a mask over positions in the support."""
        w = self.width
        return sum(1 << k for k, v in enumerate(support) if facet >> (v * w + w - 1) & 1)


def lcm_lattice(
    ideal: MonomialIdeal, caps: Optional[Caps] = None
) -> List[Monomial]:
    """All least common multiples of nonempty generator subsets, sorted."""
    packed = _Packed(ideal)
    exps = (packed.unpack(b) for b in packed.lattice(caps or default_caps()))
    return [Monomial(e) for e in sorted(exps, key=lambda e: (sum(e), e))]


def koszul_complex(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """Upper Koszul complex of the ideal at multidegree b.

    Vertices are the support positions of b in increasing variable order.
    """
    if len(b.exps) != len(ideal.variables):
        raise ValueError("monomial does not match the ideal's variables")
    packed = _Packed(ideal, max(b.exps, default=0))
    support = b.support()
    masks = [packed.to_local(f, support) for f in packed.facets(packed.pack(b.exps))]
    return SimplicialComplex.from_masks(len(support), masks)


def _nonzero_ranks(
    facets: tuple[int, ...], char: int, check: bool
) -> tuple[tuple[int, int], ...]:
    """Nonzero reduced homology ranks of the complex with these facets."""
    n = reduce(or_, facets, 0).bit_length()
    ranks = reduced_homology_ranks(
        SimplicialComplex.from_masks(n, facets), char, check=check
    )
    return tuple((d, r) for d, r in ranks.items() if r)


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
    """Betti table of the ideal itself (homological degree 0 = generators).

    With check=True every rank is checked against the rank of its
    transpose, and the homology of each core against the homology of the
    uncollapsed complex.
    """
    _check_char(char)
    caps = caps or default_caps()
    packed = _Packed(ideal)
    entries: Dict[tuple[int, int], int] = {}
    by_facets: Dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
    by_core: Dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
    for b in packed.lattice(caps):
        facets = packed.facets(b)
        if reduce(and_, facets):
            continue  # a cone
        key = _maximal_masks(facets)
        ranks = by_facets.get(key)
        if ranks is None:
            core = _strong_collapse(key)
            if len(core) == 1 and core[0]:
                ranks = ()  # a simplex
            else:
                ranks = by_core.get(core)
                if ranks is None:
                    ranks = _nonzero_ranks(core, char, check)
                    by_core[core] = ranks
            if check and _nonzero_ranks(key, char, check) != ranks:
                raise ArithmeticError(
                    f"strong collapse changed the homology at {packed.unpack(b)}"
                )
            by_facets[key] = ranks
        if ranks:
            degree = sum(packed.unpack(b))
            for d, r in ranks:
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
