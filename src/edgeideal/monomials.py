"""Monomials and monomial ideals over a fixed, ordered variable tuple.

Just enough commutative algebra for edge ideals: powers, colon by a
monomial, polarization, and reading a graph back off a squarefree
quadratic ideal.  Generators are kept minimal (no generator divides
another) and sorted by (degree, then earlier-variable-heavy first), so
printed output is stable.
"""

from __future__ import annotations

import math
import re
from itertools import combinations_with_replacement
from typing import Iterable, Optional, Sequence

from .graphs import Graph
from .limits import Caps, default_caps

_TERM_RE = re.compile(r"^([^\s^*]+?)(?:\^(\d+))?$")


class Monomial:
    """Exponent vector aligned to an ambient variable tuple."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int]) -> None:
        tup = tuple(int(e) for e in exps)
        if any(e < 0 for e in tup):
            raise ValueError(f"exponents must be non-negative: {tup}")
        self.exps: tuple[int, ...] = tup

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def support(self) -> tuple[int, ...]:
        """Indices of variables appearing with positive exponent."""
        return tuple(i for i, e in enumerate(self.exps) if e > 0)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exps, other.exps, strict=True))

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(a + b for a, b in zip(self.exps, other.exps, strict=True))

    __mul__ = mul

    def gcd(self, other: "Monomial") -> "Monomial":
        return Monomial(min(a, b) for a, b in zip(self.exps, other.exps, strict=True))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial(max(a, b) for a, b in zip(self.exps, other.exps, strict=True))

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; other must divide self."""
        if not other.divides(self):
            raise ValueError("quotient is not a monomial")
        return Monomial(a - b for a, b in zip(self.exps, other.exps, strict=True))

    def to_text(self, variables: Sequence[str]) -> str:
        if len(variables) != len(self.exps):
            raise ValueError("variable list does not match exponent length")
        parts = []
        for name, e in zip(variables, self.exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    @classmethod
    def from_text(cls, text: str, variables: Sequence[str]) -> "Monomial":
        index = {name: i for i, name in enumerate(variables)}
        exps = [0] * len(variables)
        stripped = text.strip()
        if stripped == "1":
            return cls(exps)
        for term in stripped.split("*"):
            m = _TERM_RE.match(term.strip())
            if m is None:
                raise ValueError(f"cannot parse monomial term {term!r}")
            name, power = m.group(1), m.group(2)
            if name not in index:
                raise ValueError(f"unknown variable {name!r} in monomial {text!r}")
            exps[index[name]] += int(power) if power is not None else 1
        return cls(exps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        return f"Monomial({self.exps})"


def _sort_key(m: Monomial) -> tuple[int, tuple[int, ...]]:
    # degree first, then prefer higher exponents on earlier variables
    return (m.degree, tuple(-e for e in m.exps))


def _minimalize(gens: Iterable[Monomial]) -> list[Monomial]:
    """Drop every generator strictly divisible by another one."""
    unique = sorted(set(gens), key=_sort_key)
    kept: list[Monomial] = []
    for cand in unique:
        if not any(g.divides(cand) for g in kept):
            kept.append(cand)
    return kept


class MonomialIdeal:
    """Monomial ideal given by its minimal generating set."""

    __slots__ = ("variables", "generators")

    def __init__(
        self,
        variables: Sequence[str],
        generators: Iterable[Monomial] = (),
        *,
        minimalize: bool = True,
    ) -> None:
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        gens = list(generators)
        for g in gens:
            if len(g.exps) != len(names):
                raise ValueError(
                    f"generator {g!r} does not match {len(names)} variables"
                )
        if minimalize:
            gens = _minimalize(gens)
        else:
            gens = sorted(set(gens), key=_sort_key)
        self.variables: tuple[str, ...] = names
        self.generators: tuple[Monomial, ...] = tuple(gens)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def n_generators(self) -> int:
        return len(self.generators)

    def contains(self, m: Monomial) -> bool:
        """Membership test for a monomial of this ring."""
        return any(g.divides(m) for g in self.generators)

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)

    def monomial(self, text: str) -> Monomial:
        """Parse a monomial written in this ideal's variables."""
        return Monomial.from_text(text, self.variables)

    def _gen_keys(self) -> frozenset[frozenset[tuple[str, int]]]:
        return frozenset(
            frozenset(
                (self.variables[i], e) for i, e in enumerate(g.exps) if e > 0
            )
            for g in self.generators
        )

    def __eq__(self, other: object) -> bool:
        """Same variable set and same generators, labelwise."""
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return (
            set(self.variables) == set(other.variables)
            and self._gen_keys() == other._gen_keys()
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.variables), self._gen_keys()))

    def __repr__(self) -> str:
        return f"MonomialIdeal(vars={len(self.variables)}, gens={len(self.generators)})"

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        gens = ", ".join(g.to_text(self.variables) for g in self.generators)
        return f"({gens})" if gens else "(0)"

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "generators": [
                {self.variables[i]: e for i, e in enumerate(g.exps) if e > 0}
                for g in self.generators
            ],
        }


def ideal_from_text(variables: Sequence[str], gens: Iterable[str]) -> MonomialIdeal:
    """Build an ideal from generator strings like "x1*x3^2"."""
    names = tuple(variables)
    return MonomialIdeal(names, (Monomial.from_text(t, names) for t in gens))


def edge_ideal(g: Graph) -> MonomialIdeal:
    """Squarefree quadratic ideal with one generator per edge of g."""
    n = len(g.vertices)
    gens = []
    for u, v in g.edges:
        exps = [0] * n
        exps[g.index(u)] = 1
        exps[g.index(v)] = 1
        gens.append(Monomial(exps))
    return MonomialIdeal(g.vertices, gens)


def add_generators(ideal: MonomialIdeal, texts: Iterable[str]) -> MonomialIdeal:
    """New ideal with extra generators parsed in the same variables."""
    extra = [Monomial.from_text(t, ideal.variables) for t in texts]
    return MonomialIdeal(ideal.variables, list(ideal.generators) + extra)


def power(ideal: MonomialIdeal, s: int, caps: Optional[Caps] = None) -> MonomialIdeal:
    """s-th power, minimal generators only."""
    if s < 1:
        raise ValueError(f"power exponent must be >= 1, got {s}")
    caps = caps or default_caps()
    if ideal.is_zero():
        return MonomialIdeal(ideal.variables)
    k = len(ideal.generators)
    candidates = math.comb(k + s - 1, s)
    caps.check_generators(candidates, f"power {s} of an ideal with {k} generators")
    products = {
        math.prod(combo[1:], start=combo[0])
        for combo in combinations_with_replacement(ideal.generators, s)
    }
    degrees = {m.degree for m in products}
    if len(degrees) == 1:
        # equal-degree monomials divide each other only when equal
        return MonomialIdeal(ideal.variables, products, minimalize=False)
    return MonomialIdeal(ideal.variables, products)


def colon_by_monomial(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """Quotient (I : m) = (g / gcd(g, m) for generators g)."""
    if len(m.exps) != len(ideal.variables):
        raise ValueError("monomial does not match the ideal's variables")
    return MonomialIdeal(
        ideal.variables, (g.divide(g.gcd(m)) for g in ideal.generators)
    )


def polarize(ideal: MonomialIdeal) -> tuple[MonomialIdeal, dict[str, str]]:
    """Squarefree ideal obtained by splitting exponents across fresh copies.

    Exponent e on variable v becomes the product v * v#2 * ... * v#e.  Copy
    names already present in the ring are skipped, so repeated polarization
    never reuses a label.  Returns the new ideal and a map from each fresh
    variable name to the base variable it copies.  Copies sit next to their
    base in the new variable order.
    """
    old = ideal.variables
    taken = set(old)
    max_exp = [0] * len(old)
    for g in ideal.generators:
        for i, e in enumerate(g.exps):
            if e > max_exp[i]:
                max_exp[i] = e
    copies: list[list[str]] = []  # copies[i][j] = name for exponent slot j+1 of var i
    new_map: dict[str, str] = {}
    for i, name in enumerate(old):
        slots = [name]
        k = 2
        while len(slots) < max(max_exp[i], 1):
            cand = f"{name}#{k}"
            k += 1
            if cand in taken:
                continue
            taken.add(cand)
            new_map[cand] = name
            slots.append(cand)
        copies.append(slots)
    new_vars = tuple(name for slots in copies for name in slots)
    pos = {name: j for j, name in enumerate(new_vars)}
    gens = []
    for g in ideal.generators:
        exps = [0] * len(new_vars)
        for i, e in enumerate(g.exps):
            for j in range(e):
                exps[pos[copies[i][j]]] = 1
        gens.append(Monomial(exps))
    # polarization preserves minimality of the generating set
    return MonomialIdeal(new_vars, gens, minimalize=False), new_map


def graph_of_quadratic(
    ideal: MonomialIdeal, ambient: Optional[Sequence[str]] = None
) -> Graph:
    """Graph whose edges are the generators; all must be squarefree quadrics."""
    edges = []
    for g in ideal.generators:
        if g.degree != 2 or not g.is_squarefree():
            raise ValueError(
                f"generator {g.to_text(ideal.variables)} is not a squarefree quadric"
            )
        u, v = (ideal.variables[i] for i in g.support())
        edges.append((u, v))
    vertices = ideal.variables if ambient is None else tuple(ambient)
    return Graph(vertices, edges)


def iterated_colon(
    ideal: MonomialIdeal,
    edges: Sequence[tuple[str, str]],
    caps: Optional[Caps] = None,
) -> MonomialIdeal:
    """Repeatedly square, colon by an edge generator, and polarize.

    Each step sends J to the polarization of (J^2 : uv).  The edge uv must
    be a generator of the current ideal, written in base variable labels.
    """
    caps = caps or default_caps()
    current = ideal
    for u, v in edges:
        try:
            m = Monomial.from_text(f"{u}*{v}", current.variables)
        except ValueError as exc:
            raise ValueError(f"edge ({u}, {v}): {exc}") from exc
        if m not in set(current.generators):
            raise ValueError(
                f"edge ({u}, {v}) is not a generator of the current ideal"
            )
        squared = power(current, 2, caps)
        current, _ = polarize(colon_by_monomial(squared, m))
    return current
