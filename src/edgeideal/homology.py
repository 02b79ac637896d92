"""Simplicial complexes on index vertices and exact reduced homology ranks.

Faces are bitmasks over vertices 0..n-1.  Homology is computed over the
rationals (char=0) by fraction-free integer elimination, or over GF(p)
for a prime p.  The rank of each boundary map can be double-checked
against the rank of its transpose.  Strong collapses (deleting dominated
vertices) shrink a complex to its core without changing its homotopy
type, so fewer and smaller ranks are needed.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional


class SimplicialComplex:
    """Abstract simplicial complex given by its facets (maximal faces).

    The void complex has no faces at all; the complex whose only face is
    the empty set is represented by the single facet mask 0.
    """

    __slots__ = ("n_vertices", "facet_masks", "_faces")

    def __init__(self, n_vertices: int, faces: Iterable[Iterable[int]]) -> None:
        masks = []
        for face in faces:
            m = 0
            for v in face:
                if not 0 <= v < n_vertices:
                    raise ValueError(f"vertex index {v} out of range")
                m |= 1 << v
            masks.append(m)
        self.n_vertices = n_vertices
        self.facet_masks = _maximal_masks(masks)
        self._faces: Optional[Dict[int, List[int]]] = None

    @classmethod
    def from_masks(cls, n_vertices: int, masks: Iterable[int]) -> "SimplicialComplex":
        obj = cls.__new__(cls)
        obj.n_vertices = n_vertices
        obj.facet_masks = _maximal_masks(list(masks))
        obj._faces = None
        return obj

    def is_void(self) -> bool:
        return not self.facet_masks

    def is_cone(self) -> bool:
        """True when some vertex lies in every facet."""
        if not self.facet_masks:
            return False
        common = self.facet_masks[0]
        for m in self.facet_masks[1:]:
            common &= m
            if not common:
                return False
        return common != 0

    def dimension(self) -> int:
        """Largest face size minus one; -1 for {empty set}, -2 for void."""
        if not self.facet_masks:
            return -2
        return max(m.bit_count() for m in self.facet_masks) - 1

    def faces_by_dim(self) -> Dict[int, List[int]]:
        """All faces grouped by dimension, each list sorted by mask."""
        if self._faces is None:
            seen: set[int] = set()
            for facet in self.facet_masks:
                sub = facet
                while True:
                    seen.add(sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & facet
            grouped: Dict[int, List[int]] = {}
            for m in seen:
                grouped.setdefault(m.bit_count() - 1, []).append(m)
            for lst in grouped.values():
                lst.sort()
            self._faces = grouped
        return self._faces

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f_{-1}, f_0, ..., f_dim); empty tuple for void."""
        faces = self.faces_by_dim()
        if not faces:
            return ()
        top = max(faces)
        return tuple(len(faces.get(d, ())) for d in range(-1, top + 1))

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex(n={self.n_vertices}, "
            f"facets={len(self.facet_masks)})"
        )


def _maximal_masks(masks: List[int]) -> tuple[int, ...]:
    """Keep only masks not contained in another mask."""
    kept: List[int] = []
    # a mask can only lie inside one with at least as many bits
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for big in kept:
            if m & big == m:
                break
        else:
            kept.append(m)
    return tuple(sorted(kept))


def _strong_collapse(facets: tuple[int, ...]) -> tuple[int, ...]:
    """Core of the complex with these maximal facets, vertices renumbered.

    A vertex v is dominated when another vertex lies in every facet that
    contains v; deleting v keeps the strong homotopy type (Barmak and
    Minian, "Strong homotopy types, nerves and collapses", 2012), and v
    stays dominated after deleting any vertex but its dominator.  So each
    round deletes, in turn, every vertex with a dominator not deleted
    before it, until no vertex is dominated.  The surviving vertices are
    then renumbered 0..k-1 in increasing order, which keeps the facet
    masks sorted.
    """
    while True:
        common: Dict[int, int] = {}
        for f in facets:
            rest = f
            while rest:
                bit = rest & -rest
                rest ^= bit
                common[bit] = common.get(bit, f) & f
        removed = 0
        for bit, shared in common.items():
            if shared & ~(bit | removed):
                removed |= bit
        if not removed:
            break
        facets = _maximal_masks([f & ~removed for f in facets])
    dense = {bit: 1 << i for i, bit in enumerate(sorted(common))}
    out = []
    for f in facets:
        m = 0
        while f:
            bit = f & -f
            f ^= bit
            m |= dense[bit]
        out.append(m)
    return tuple(out)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _check_char(char: int) -> None:
    """Reject a characteristic that is neither 0 nor a prime below 2**64.

    Miller-Rabin with the twelve primes up to 37 as bases is exact below
    2**64, and takes microseconds where trial division could take minutes.
    """
    if char == 0 or char in _PRIME_BASES:
        return
    prime = 2 <= char < 1 << 64 and all(char % p for p in _PRIME_BASES)
    if prime:
        odd, halvings = char - 1, 0
        while odd % 2 == 0:
            odd //= 2
            halvings += 1
        for a in _PRIME_BASES:
            x = pow(a, odd, char)
            if x == 1 or x == char - 1:
                continue
            for _ in range(halvings - 1):
                x = x * x % char
                if x == char - 1:
                    break
            else:
                prime = False
                break
    if not prime:
        raise ValueError(
            f"characteristic must be 0 or a prime below 2**64, got {char}"
        )


def _normalize_row(row: Dict[int, int]) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g


def matrix_rank(
    rows: List[Dict[int, int]], char: int = 0, *, check: bool = False
) -> int:
    """Exact rank of a sparse integer matrix, over Q or GF(char).

    With check=True the rank of the transpose is computed independently
    and must agree.
    """
    _check_char(char)
    r = _rank_elimination(rows, char)
    if check:
        cols: Dict[int, Dict[int, int]] = {}
        for i, row in enumerate(rows):
            for c, v in row.items():
                cols.setdefault(c, {})[i] = v
        rt = _rank_elimination(list(cols.values()), char)
        if r != rt:
            raise ArithmeticError(f"rank mismatch: {r} vs transpose {rt}")
    return r


def _rank_elimination(rows: List[Dict[int, int]], char: int) -> int:
    pivots: Dict[int, Dict[int, int]] = {}
    for original in rows:
        if char:
            row = {c: v % char for c, v in original.items() if v % char}
        else:
            row = {c: v for c, v in original.items() if v}
        while row:
            # eliminate against an existing pivot if one matches
            col = None
            for c in row:
                if c in pivots:
                    col = c
                    break
            if col is None:
                break
            piv = pivots[col]
            a, p = row[col], piv[col]
            if char:
                factor = (a * pow(p, -1, char)) % char
                for c, v in piv.items():
                    nv = (row.get(c, 0) - factor * v) % char
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
            else:
                g = gcd(a, p)
                ma, mp = p // g, a // g
                if ma != 1:
                    for c in row:
                        row[c] *= ma
                for c, v in piv.items():
                    nv = row.get(c, 0) - mp * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
                _normalize_row(row)
        if row:
            # prefer a +-1 pivot to keep later integer growth down
            col = None
            for c, v in row.items():
                if v == 1 or v == -1:
                    col = c
                    break
            if col is None:
                col = min(row, key=lambda c: (abs(row[c]), c))
            pivots[col] = row
    return len(pivots)


def boundary_matrix(
    faces_low: List[int], faces_high: List[int]
) -> List[Dict[int, int]]:
    """Rows are boundaries of the higher faces in the basis of lower faces."""
    index = {m: i for i, m in enumerate(faces_low)}
    rows = []
    for m in faces_high:
        row: Dict[int, int] = {}
        sign = 1
        rest = m
        while rest:
            bit = rest & -rest
            rest ^= bit
            row[index[m ^ bit]] = sign
            sign = -sign
        rows.append(row)
    return rows


def boundary_ranks(
    complex_: SimplicialComplex, char: int = 0, *, check: bool = False
) -> Dict[int, int]:
    """rank of the boundary map C_d -> C_{d-1} for every d >= 0."""
    faces = complex_.faces_by_dim()
    ranks: Dict[int, int] = {}
    if not faces:
        return ranks
    top = max(faces)
    for d in range(0, top + 1):
        high = faces.get(d, [])
        low = faces.get(d - 1, [])
        if not high or not low:
            ranks[d] = 0
            continue
        ranks[d] = matrix_rank(boundary_matrix(low, high), char, check=check)
    return ranks


def reduced_homology_ranks(
    complex_: SimplicialComplex, char: int = 0, *, check: bool = False
) -> Dict[int, int]:
    """Reduced homology ranks by dimension, from -1 up to the dimension.

    The void complex has no homology at all; the complex {empty set} has
    a single class in dimension -1.
    """
    faces = complex_.faces_by_dim()
    if not faces:
        return {}
    top = max(faces)
    ranks = boundary_ranks(complex_, char, check=check)
    out: Dict[int, int] = {}
    for d in range(-1, top + 1):
        f_d = len(faces.get(d, ()))
        out[d] = f_d - ranks.get(d, 0) - ranks.get(d + 1, 0)
    return out


def reduced_homology_rank(
    complex_: SimplicialComplex, d: int, char: int = 0, *, check: bool = False
) -> int:
    """Single reduced homology rank; dimensions outside the range are 0."""
    return reduced_homology_ranks(complex_, char, check=check).get(d, 0)
