"""Command line front end.

Subcommands map one-to-one onto library operations: graph invariants, the
derived graph of a colon ideal, ideal arithmetic, Betti tables, the
regularity oracle, closed-form bounds, the theorem harness, and the
exhaustive gap search.  Output is deterministic: identical invocations
produce byte-identical stdout.

Exit codes: 0 ok, 1 harness check failed (counterexample printed),
2 usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional, Sequence, Tuple

from .betti import betti_table, reg_power
from .chordal import cochordal_cover_number, is_cochordal, is_weakly_chordal
from .evenconnection import even_connected_pairs, gprime
from .families import (
    add_pendants,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    is_whiskered,
    path,
    pendant_cycle_star,
    whisker,
)
from .graphs import Graph, is_bipartite, parse_graph
from .invariants import (
    has_dominating_induced_matching,
    independence_number,
    induced_matching_number,
    is_unmixed,
    matching_number,
    min_maximal_matching_number,
)
from .limits import Caps, ResourceLimitError, default_caps
from .monomials import MonomialIdeal, colon_by_monomial, edge_ideal, polarize, power
from .regbounds import (
    CheckConfig,
    GraphProfile,
    check_theorems,
    gap_search,
    reg_upper_bound_matching,
    russ_lower_bound_witness,
    upper_bounds_proven,
)
from .smallgraphs import FAMILY_SPECS, enumerate_family

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_CYCLE_RE = re.compile(r"C(\d+)$")
_PATH_RE = re.compile(r"P(\d+)$")
_BIPARTITE_RE = re.compile(r"K(\d+),(\d+)$")
_COMPLETE_RE = re.compile(r"K(\d+)$")


def _split_top(text: str, sep: str) -> List[str]:
    """Split on sep at parenthesis depth zero."""
    parts: List[str] = []
    depth = 0
    cur: List[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def parse_family(spec: str) -> Graph:
    """Resolve a constructor spec like C6, K2,3, W(C4), or U(C5;K2)."""
    spec = spec.strip()
    if spec.startswith("W(") and spec.endswith(")"):
        return whisker(parse_family(spec[2:-1]))
    if spec.startswith("U(") and spec.endswith(")"):
        inner = _split_top(spec[2:-1], ";")
        return disjoint_union([parse_family(p) for p in inner])
    if spec.startswith("star(") and spec.endswith(")"):
        head, *rest = _split_top(spec[5:-1], ";")
        if len(rest) != 1:
            raise ValueError(f"star spec needs 'k;r1,r2,...', got {spec!r}")
        halves = [int(r) for r in rest[0].split(",") if r.strip()]
        return pendant_cycle_star(int(head), halves)
    if spec.startswith("pend(") and spec.endswith(")"):
        head, *rest = _split_top(spec[5:-1], ";")
        if len(rest) != 1:
            raise ValueError(f"pend spec needs 'SPEC;v1,v2,...', got {spec!r}")
        at = [v.strip() for v in rest[0].split(",") if v.strip()]
        return add_pendants(parse_family(head), at)
    m = _CYCLE_RE.match(spec)
    if m:
        return cycle(int(m.group(1)))
    m = _PATH_RE.match(spec)
    if m:
        return path(int(m.group(1)))
    m = _BIPARTITE_RE.match(spec)
    if m:
        return complete_bipartite(int(m.group(1)), int(m.group(2)))
    m = _COMPLETE_RE.match(spec)
    if m:
        return complete(int(m.group(1)))
    raise ValueError(f"unknown family spec {spec!r}")


def _parse_edge_list(text: str) -> List[Tuple[str, str]]:
    """--edges "x2 x3, x4 x5" as an ordered multiset of pairs."""
    edges = []
    for chunk in text.split(","):
        names = chunk.split()
        if len(names) != 2:
            raise ValueError(f"bad edge {chunk.strip()!r}; expected two vertex names")
        edges.append((names[0], names[1]))
    if not edges:
        raise ValueError("empty edge multiset")
    return edges


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "graph", None):
        with open(args.graph, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    if getattr(args, "family", None):
        return parse_family(args.family)
    raise ValueError("one of --graph FILE or --family SPEC is required")


def _caps(args: argparse.Namespace) -> Caps:
    return default_caps().with_overrides(
        max_vertices=args.cap_vertices,
        max_edges=args.cap_edges,
        max_generators=args.cap_generators,
        max_lattice=args.cap_lattice,
    )


def _graph_json(g: Graph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, indent=2))


def _ideal_from_args(g: Graph, args: argparse.Namespace, caps: Caps) -> MonomialIdeal:
    ideal = edge_ideal(g)
    if args.power != 1:
        ideal = power(ideal, args.power, caps)
    if args.colon:
        factor = None
        for u, v in _parse_edge_list(args.colon):
            if not g.has_edge(u, v):
                raise ValueError(f"({u}, {v}) is not an edge of the graph")
            m = ideal.monomial(f"{u}*{v}")
            factor = m if factor is None else factor.mul(m)
        ideal = colon_by_monomial(ideal, factor)
    return ideal


def _cmd_invariants(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    caps = _caps(args)
    cochord, _ = cochordal_cover_number(g, caps)
    rows = [
        ("vertices", g.n_vertices),
        ("edges", g.n_edges),
        ("matching", matching_number(g, caps)),
        ("min_maximal_matching", min_maximal_matching_number(g, caps)),
        ("induced_matching", induced_matching_number(g, caps)),
        ("independence", independence_number(g, caps)),
        ("cochord", cochord),
    ]
    flags = [
        ("bipartite", is_bipartite(g)),
        ("cochordal", is_cochordal(g)),
        ("weakly_chordal", is_weakly_chordal(g)),
        ("unmixed", is_unmixed(g, caps)),
        ("whiskered", is_whiskered(g)),
        ("dominating_induced_matching", has_dominating_induced_matching(g, caps)),
    ]
    if args.json:
        _emit_json(
            {
                "graph": _graph_json(g),
                "invariants": dict(rows),
                "flags": dict(flags),
            }
        )
        return EXIT_OK
    for name, value in rows:
        print(f"{name} {value}")
    for name, value in flags:
        print(f"{name} {'true' if value else 'false'}")
    return EXIT_OK


def _cmd_gprime(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    caps = _caps(args)
    multiset = _parse_edge_list(args.edges)
    derived = gprime(g, multiset, caps)
    pairs = [
        (u, v, cert)
        for u, v, cert in even_connected_pairs(g, multiset)
        if u == v or not g.has_edge(u, v)
    ]
    if args.json:
        _emit_json(
            {
                "graph": _graph_json(g),
                "multiset": [list(e) for e in multiset],
                "derived": _graph_json(derived),
                "added": [
                    {
                        "pair": [u, v],
                        "walk": list(cert.walk),
                        "middle_assignment": [list(p) for p in cert.middle_assignment],
                    }
                    for u, v, cert in pairs
                ],
            }
        )
        return EXIT_OK
    print("base edges:")
    for u, v in g.edges:
        print(f"  {u} {v}")
    print("added edges:")
    for u, v, cert in pairs:
        label = f"{u} {v}" if u != v else f"{u} z@{u}"
        print(f"  {label}  walk: {' '.join(cert.walk)}")
    return EXIT_OK


def _cmd_ideal(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    caps = _caps(args)
    ideal = _ideal_from_args(g, args, caps)
    fresh = {}
    if args.polarize:
        ideal, fresh = polarize(ideal)
    if args.json:
        out = {"graph": _graph_json(g), "ideal": ideal.to_json_dict()}
        if args.polarize:
            out["fresh_variables"] = fresh
        _emit_json(out)
        return EXIT_OK
    print(ideal.to_text())
    if args.polarize and fresh:
        print("fresh: " + " ".join(f"{k}->{v}" for k, v in sorted(fresh.items())))
    return EXIT_OK


def _cmd_betti(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    caps = _caps(args)
    ideal = _ideal_from_args(g, args, caps)
    if ideal.is_zero():
        if args.json:
            _emit_json({"zero": True, "char": args.char})
        else:
            print("(zero ideal)")
        return EXIT_OK
    table = betti_table(ideal, char=args.char, caps=caps)
    if args.json:
        _emit_json(
            {
                "char": args.char,
                "rows": table.rows(),
                "regularity": table.regularity(),
                "projective_dimension": table.projective_dimension(),
            }
        )
        return EXIT_OK
    print(table.to_text())
    print(f"regularity {table.regularity()}")
    print(f"projective_dimension {table.projective_dimension()}")
    return EXIT_OK


def _cmd_reg(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    caps = _caps(args)
    value = reg_power(g, args.s, char=args.char, caps=caps)
    if args.json:
        _emit_json({"graph": _graph_json(g), "s": args.s, "char": args.char, "reg": value})
    else:
        print(value)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    caps = _caps(args)
    s = args.s
    p = GraphProfile(g, caps)
    exact = p.exact_class(s)
    lower = 2 * s + p.nu - 1
    russ, witness = russ_lower_bound_witness(g, s, caps)
    upper_c = 2 * s + p.cochord - 1
    upper_m = reg_upper_bound_matching(g, s, caps)
    proven = upper_bounds_proven(g, s)
    bipartition = p.bipartition_bound(s) if p.sides is not None else None
    if args.json:
        out = {
            "graph": _graph_json(g),
            "s": s,
            "lower": lower,
            "lower_witnessed": russ,
            "witness": [list(part) for part in witness],
            "upper_cochord": upper_c,
            "upper_matching": upper_m,
            "upper_bounds_proven": proven,
            "upper_bipartition": (
                None
                if bipartition is None
                else {"value": str(bipartition.value), "floor": bipartition.floor}
            ),
            "exact": (
                None
                if exact is None
                else {
                    "value": exact.value,
                    "class": exact.class_tag,
                    "all_classes": list(exact.all_tags),
                }
            ),
        }
        _emit_json(out)
        return EXIT_OK
    print(f"s {s}")
    print(f"lower {lower}")
    print(f"lower_witnessed {russ}")
    if witness:
        print("witness " + " | ".join(" ".join(part) for part in witness))
    print(f"upper_cochord {upper_c}")
    print(f"upper_matching {upper_m}")
    if bipartition is not None:
        print(f"upper_bipartition {bipartition.value} (floor {bipartition.floor})")
    print(f"upper_bounds_proven {'true' if proven else 'false'}")
    if exact is not None:
        print(f"exact {exact.value} ({exact.class_tag}; all: {', '.join(exact.all_tags)})")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    caps = _caps(args)
    s_values = tuple(int(x) for x in args.s.split(",") if x.strip())
    if not s_values:
        raise ValueError("--s needs at least one power")
    config = CheckConfig(
        s_values=s_values,
        max_multiset_size=args.multiset_size,
        oracle=not args.no_oracle,
        power_recursion=args.power_recursion,
        char=args.char,
    )
    reports = check_theorems(g, config, caps)
    failed = any(r.has_failure() for r in reports)
    if args.json:
        _emit_json([r.to_json_dict() for r in reports])
    else:
        for r in reports:
            print(r.to_text())
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_gap_search(args: argparse.Namespace) -> int:
    caps = _caps(args)
    graphs: List[Graph] = []
    for spec in args.family:
        kind = spec.split(":", 1)[0]
        if kind in FAMILY_SPECS:
            graphs.extend(enumerate_family(spec))
        else:
            graphs.append(parse_family(spec))
    report = gap_search(graphs, args.s, char=args.char, caps=caps)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(report.to_text())
    violated = any(t < 0 for dist in report.distribution.values() for t in dist)
    if violated:
        print("lower-bound violation found", file=sys.stderr)
    for item in report.upper_violations:
        bound = 2 * args.s + item["cochord"] - 1
        line = f"upper-bound violation: {item['graph']} reg={item['reg']} > {bound}"
        print(line, file=sys.stderr)
    if violated or report.upper_violations:
        return EXIT_CHECK_FAILED
    return EXIT_OK


_CATALOG = """constructors:
  C<n>              cycle on n vertices (n >= 3)
  P<n>              path on n vertices
  K<m>,<n>          complete bipartite graph
  K<n>              complete graph
  W(SPEC)           whisker: one pendant per vertex of SPEC
  U(S1;S2;...)      disjoint union, relabeled x1..xN
  star(k;r1,r2,..)  k pendant edges plus even cycles of lengths 2*r_i, all
                    sharing the star center
  pend(SPEC;v,...)  attach one pendant at each named vertex
enumerations (for gap-search --family):
  graphs:N, connected:N, connected-bipartite:N   all such graphs, N <= 7
  trees:N                                        trees on N <= 8 vertices
  forests:E                                      forests with <= E <= 7 edges"""


def _cmd_families(args: argparse.Namespace) -> int:
    if args.family:
        g = parse_family(args.family)
        if args.json:
            _emit_json(_graph_json(g))
        else:
            sys.stdout.write(g.to_text() or "(empty graph)\n")
        return EXIT_OK
    if args.json:
        _emit_json(
            {
                "constructors": ["C<n>", "P<n>", "K<m>,<n>", "K<n>", "W()", "U()", "star()", "pend()"],
                "enumerations": list(FAMILY_SPECS),
            }
        )
        return EXIT_OK
    print(_CATALOG)
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser, graph_input: bool = True) -> None:
    if graph_input:
        group = sub.add_mutually_exclusive_group()
        group.add_argument("--graph", metavar="FILE", help="edge-list file")
        group.add_argument("--family", metavar="SPEC", help="family spec, see `families`")
    sub.add_argument("--json", action="store_true", help="JSON output")
    sub.add_argument("--cap-vertices", type=int, metavar="N")
    sub.add_argument("--cap-edges", type=int, metavar="N")
    sub.add_argument("--cap-generators", type=int, metavar="N")
    sub.add_argument("--cap-lattice", type=int, metavar="N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeideal",
        description="Edge ideal invariants, derived graphs, and regularity checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("invariants", help="matching and cover invariants of a graph")
    _add_common(p)
    p.set_defaults(func=_cmd_invariants)

    p = subs.add_parser("gprime", help="derived graph of a colon by an edge multiset")
    _add_common(p)
    p.add_argument("--edges", required=True, metavar="LIST", help='e.g. "x2 x3, x4 x5"')
    p.set_defaults(func=_cmd_gprime)

    p = subs.add_parser("ideal", help="edge ideal, optionally powered/coloned/polarized")
    _add_common(p)
    p.add_argument("--power", type=int, default=1, metavar="S")
    p.add_argument("--colon", metavar="LIST", help="colon by the product of these edges")
    p.add_argument("--polarize", action="store_true")
    p.set_defaults(func=_cmd_ideal)

    p = subs.add_parser("betti", help="graded Betti table of the (powered) edge ideal")
    _add_common(p)
    p.add_argument("--power", type=int, default=1, metavar="S")
    p.add_argument("--colon", metavar="LIST", help="colon by the product of these edges")
    p.add_argument("--char", type=int, default=0, metavar="P")
    p.set_defaults(func=_cmd_betti)

    p = subs.add_parser("reg", help="regularity of I(G)^s from the Betti oracle")
    _add_common(p)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--char", type=int, default=0, metavar="P")
    p.set_defaults(func=_cmd_reg)

    p = subs.add_parser("bounds", help="closed-form regularity bounds and exact classes")
    _add_common(p)
    p.add_argument("--s", type=int, default=1)
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("check", help="run the theorem harness on one graph")
    _add_common(p)
    p.add_argument("--s", default="1,2", metavar="LIST", help="comma-separated powers")
    p.add_argument("--multiset-size", type=int, default=1, metavar="K")
    p.add_argument("--power-recursion", action="store_true")
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--char", type=int, default=0, metavar="P")
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("gap-search", help="bound gaps over an enumerated family")
    _add_common(p, graph_input=False)
    p.add_argument(
        "--family",
        action="append",
        required=True,
        metavar="SPEC",
        help="enumeration spec (kind:size) or constructor spec; repeatable",
    )
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--char", type=int, default=0, metavar="P")
    p.set_defaults(func=_cmd_gap_search)

    p = subs.add_parser("families", help="list family specs, or resolve one")
    _add_common(p)
    p.set_defaults(func=_cmd_families)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
