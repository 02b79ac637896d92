"""Finite simple graphs with labeled vertices and deterministic ordering.

Vertices keep first-appearance order; edges are stored with each endpoint
pair ordered by vertex index and the edge list sorted by index pairs, so
every traversal and printed form is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class Graph:
    """Immutable simple graph. Equality is label-wise on vertices and edges."""

    __slots__ = ("vertices", "edges", "_index", "_adj", "_hash")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        verts: list[str] = []
        seen: set[str] = set()
        for v in vertices:
            if not isinstance(v, str) or not v:
                raise ValueError(f"vertex labels must be non-empty strings: {v!r}")
            if v not in seen:
                if v.split() != [v]:
                    # to_text writes one "u v" line per edge
                    raise ValueError(f"vertex label {v!r} contains whitespace")
                seen.add(v)
                verts.append(v)
        index = {v: i for i, v in enumerate(verts)}
        edge_set: set[tuple[str, str]] = set()
        for u, v in edges:
            if u not in index:
                raise ValueError(f"edge endpoint {u!r} is not a vertex")
            if v not in index:
                raise ValueError(f"edge endpoint {v!r} is not a vertex")
            if u == v:
                raise ValueError(f"loop at {u!r} is not allowed in a simple graph")
            if index[u] > index[v]:
                u, v = v, u
            edge_set.add((u, v))
        self.vertices: tuple[str, ...] = tuple(verts)
        self.edges: tuple[tuple[str, str], ...] = tuple(
            sorted(edge_set, key=lambda e: (index[e[0]], index[e[1]]))
        )
        self._index = index
        adj: dict[str, list[str]] = {v: [] for v in verts}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {
            v: tuple(sorted(ns, key=index.__getitem__)) for v, ns in adj.items()
        }
        self._hash: Optional[int] = None

    # -- basic queries ----------------------------------------------------

    def index(self, v: str) -> int:
        if v not in self._index:
            raise ValueError(f"unknown vertex {v!r}")
        return self._index[v]

    def has_vertex(self, v: str) -> bool:
        return v in self._index

    def neighbors(self, v: str) -> tuple[str, ...]:
        if v not in self._adj:
            raise ValueError(f"unknown vertex {v!r}")
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def support(self) -> tuple[str, ...]:
        """Vertices of degree at least one, in vertex order."""
        return tuple(v for v in self.vertices if self._adj[v])

    def adjacency_masks(self) -> list[int]:
        """Neighbor bitmask per vertex index, for the search internals."""
        masks = [0] * len(self.vertices)
        for u, v in self.edges:
            iu, iv = self._index[u], self._index[v]
            masks[iu] |= 1 << iv
            masks[iv] |= 1 << iu
        return masks

    # -- structure --------------------------------------------------------

    def components(self) -> list[tuple[str, ...]]:
        """Connected components, each in vertex order, ordered by first vertex."""
        unseen = set(self.vertices)
        comps: list[tuple[str, ...]] = []
        for root in self.vertices:
            if root not in unseen:
                continue
            stack = [root]
            unseen.discard(root)
            comp = {root}
            while stack:
                cur = stack.pop()
                for w in self._adj[cur]:
                    if w in unseen:
                        unseen.discard(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(tuple(v for v in self.vertices if v in comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.vertices, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def to_text(self) -> str:
        """Edge-list text form; isolated vertices listed on a header comment."""
        lines = []
        isolated = [v for v in self.vertices if not self._adj[v]]
        if isolated:
            lines.append("# isolated: " + " ".join(isolated))
        for u, v in self.edges:
            lines.append(f"{u} {v}")
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class Bipartition:
    """Two color classes of a bipartite graph, each in vertex order."""

    left: tuple[str, ...]
    right: tuple[str, ...]


def parse_graph(text: str) -> Graph:
    """Parse an edge-list text: one 'u v' pair per line.

    Blank lines and '#' comments are skipped; duplicate edges are
    idempotent; loops and malformed lines are rejected with the line number.
    """
    vertices: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"line {lineno}: expected two vertex labels, got {len(parts)}: "
                f"{raw.strip()!r}"
            )
        u, v = parts
        if u == v:
            raise ValueError(f"line {lineno}: loop {u!r} {v!r} is not allowed")
        for w in (u, v):
            if w not in seen:
                seen.add(w)
                vertices.append(w)
        edges.append((u, v))
    return Graph(vertices, edges)


def complement(g: Graph) -> Graph:
    """Complement on the same vertex list."""
    edges = []
    verts = g.vertices
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if not g.has_edge(verts[i], verts[j]):
                edges.append((verts[i], verts[j]))
    return Graph(verts, edges)


def induced_subgraph(g: Graph, vertices: Sequence[str]) -> Graph:
    """Subgraph induced on the given labels, inheriting g's vertex order."""
    for v in vertices:
        if not g.has_vertex(v):
            raise ValueError(f"unknown vertex {v!r}")
    keep = set(vertices)
    verts = [v for v in g.vertices if v in keep]
    edges = [(u, v) for u, v in g.edges if u in keep and v in keep]
    return Graph(verts, edges)


def bipartition(g: Graph) -> Optional[Bipartition]:
    """Two-color g if possible: per component, the root (smallest vertex
    index) goes left. Returns None when an odd cycle exists."""
    color: dict[str, int] = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            cur = queue.pop(0)
            for w in g.neighbors(cur):
                if w not in color:
                    color[w] = 1 - color[cur]
                    queue.append(w)
                elif color[w] == color[cur]:
                    return None
    left = tuple(v for v in g.vertices if color[v] == 0)
    right = tuple(v for v in g.vertices if color[v] == 1)
    return Bipartition(left, right)


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def disjoint_union_raw(graphs: Sequence[Graph]) -> Graph:
    """Union keeping original labels; labels must be pairwise disjoint."""
    verts: list[str] = []
    edges: list[tuple[str, str]] = []
    seen: set[str] = set()
    for g in graphs:
        for v in g.vertices:
            if v in seen:
                raise ValueError(f"duplicate vertex label {v!r} across components")
            seen.add(v)
            verts.append(v)
        edges.extend(g.edges)
    return Graph(verts, edges)
