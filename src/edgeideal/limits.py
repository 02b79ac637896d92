"""Resource caps shared by the exponential-time searches.

Every potentially exponential routine takes an optional Caps and raises
ResourceLimitError with the offending quantity instead of running away.
Every cap must be a positive integer; anything else is a usage error
(ValueError), whether it comes from code, a CLI flag or the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

ENV_VAR = "EDGEIDEAL_CAPS"


class ResourceLimitError(RuntimeError):
    """Input exceeds a configured resource cap."""


@dataclass(frozen=True)
class Caps:
    max_vertices: int = 24
    max_edges: int = 60
    max_generators: int = 200000
    max_lattice: int = 50000

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value <= 0:
                raise ValueError(
                    f"cap {f.name} must be a positive integer, got {value}"
                )

    def with_overrides(self, **kwargs: int) -> "Caps":
        given = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **given) if given else self

    def check_graph(self, n_vertices: int, n_edges: int, context: str) -> None:
        if n_vertices > self.max_vertices:
            raise ResourceLimitError(
                f"{context}: {n_vertices} vertices exceeds cap of "
                f"{self.max_vertices}"
            )
        if n_edges > self.max_edges:
            raise ResourceLimitError(
                f"{context}: {n_edges} edges exceeds cap of {self.max_edges}"
            )

    def check_generators(self, count: int, context: str) -> None:
        if count > self.max_generators:
            raise ResourceLimitError(
                f"{context}: {count} generators exceeds cap of "
                f"{self.max_generators}"
            )

    def check_lattice(self, size: int, context: str) -> None:
        if size > self.max_lattice:
            raise ResourceLimitError(
                f"{context}: lcm lattice size {size} exceeds cap of "
                f"{self.max_lattice}"
            )


def _parse_env(text: str) -> dict:
    # format: "vertices=24,edges=60,generators=200000,lattice=50000"
    keymap = {
        "vertices": "max_vertices",
        "edges": "max_edges",
        "generators": "max_generators",
        "lattice": "max_lattice",
    }
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad {ENV_VAR} entry: {part!r}")
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in keymap:
            raise ValueError(f"unknown {ENV_VAR} key: {key!r}")
        out[keymap[key]] = int(val)
    return out


def default_caps() -> Caps:
    """Caps from the environment variable, or the built-in defaults."""
    text = os.environ.get(ENV_VAR)
    if not text:
        return Caps()
    return Caps().with_overrides(**_parse_env(text))
