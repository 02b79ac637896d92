"""Betti tables and regularity from upper Koszul complexes.

Expected values come from an independent Taylor-complex computation
(tests/oracles.py) or from closed formulas exercised at small size.
"""

import random

import pytest

import edgeideal.betti as betti_module
from edgeideal.betti import (
    betti_table,
    has_linear_resolution,
    lcm_lattice,
    reg_power,
    regularity,
)
from edgeideal.families import complete_bipartite, cycle, path, whisker
from edgeideal.graphs import parse_graph
from edgeideal.limits import Caps, ResourceLimitError
from edgeideal.monomials import (
    colon_by_monomial,
    edge_ideal,
    ideal_from_text,
    iterated_colon,
    polarize,
    power,
)
from edgeideal.smallgraphs import enumerate_family

from oracles import random_graph, taylor_betti

EIGHT_VERTEX = parse_graph(
    "x1 x7\nx1 x2\nx2 x3\nx2 x6\nx3 x4\nx3 x5\nx4 x5\nx6 x8"
)


def test_lcm_lattice_of_triangle():
    ideal = edge_ideal(cycle(3))
    lattice = lcm_lattice(ideal)
    texts = [m.to_text(ideal.variables) for m in lattice]
    assert texts == ["x2*x3", "x1*x3", "x1*x2", "x1*x2*x3"]


def test_pentagon_betti_table():
    table = betti_table(edge_ideal(cycle(5)))
    assert table.entries == {(0, 2): 5, (1, 3): 5, (2, 5): 1}
    assert table.regularity() == 3
    assert table.projective_dimension() == 2


def test_zero_ideal_has_no_regularity():
    with pytest.raises(ValueError):
        regularity(ideal_from_text(("x1",), []))


def test_cycle_regularity_formula():
    # floor(n/3) + 1, one more when n = 2 mod 3
    expected = {3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 4}
    for n, want in expected.items():
        assert regularity(edge_ideal(cycle(n))) == want, n


def test_path_regularity_is_induced_matching_plus_one():
    from edgeideal.invariants import induced_matching_number

    for n in range(2, 9):
        g = path(n)
        assert regularity(edge_ideal(g)) == induced_matching_number(g) + 1, n


def test_betti_matches_taylor_oracle():
    cases = [
        edge_ideal(cycle(5)),
        edge_ideal(cycle(6)),
        edge_ideal(path(5)),
        edge_ideal(complete_bipartite(2, 3)),
        power(edge_ideal(path(4)), 2),
        power(edge_ideal(cycle(3)), 3),
    ]
    i6 = edge_ideal(cycle(6))
    cases.append(colon_by_monomial(power(i6, 2), i6.monomial("x1*x2")))
    for ideal in cases:
        for char in (0, 2):
            assert betti_table(ideal, char=char, check=True).entries == taylor_betti(
                ideal, char=char
            ), ideal.to_text()


def test_betti_matches_taylor_oracle_random():
    rng = random.Random(13)
    done = 0
    while done < 12:
        g = random_graph(rng, rng.randint(3, 6), 0.45)
        ideal = edge_ideal(g)
        if rng.random() < 0.4:
            ideal = power(ideal, 2)
        if not 1 <= ideal.n_generators() <= 8:
            continue
        char = rng.choice([0, 0, 3])
        assert betti_table(ideal, char=char, check=True).entries == taylor_betti(
            ideal, char=char
        ), (g.to_text(), char)
        done += 1


def test_polarization_preserves_betti_table():
    for ideal in (
        power(edge_ideal(path(4)), 2),
        power(edge_ideal(cycle(3)), 2),
        colon_by_monomial(
            power(edge_ideal(cycle(5)), 2), edge_ideal(cycle(5)).monomial("x1*x2")
        ),
    ):
        pol, _ = polarize(ideal)
        assert betti_table(pol).entries == betti_table(ideal).entries


def test_reg_power_known_values():
    assert reg_power(cycle(5), 1) == 3
    assert reg_power(cycle(5), 2) == 4  # 2s + floor(5/3) - 1
    assert reg_power(cycle(6), 2) == 5
    assert reg_power(whisker(cycle(4)), 2) == 5
    assert reg_power(path(2), 3) == 6  # (xy)^3 in two variables


def test_reg_power_validates_input():
    with pytest.raises(ValueError):
        reg_power(cycle(5), 0)
    with pytest.raises(ValueError):
        reg_power(parse_graph(""), 1)


def test_hexagon_colon_regularity_drops():
    ideal = edge_ideal(cycle(6))
    colon = iterated_colon(ideal, [("x2", "x3"), ("x4", "x5")])
    assert regularity(edge_ideal(cycle(6))) == 3
    assert regularity(colon) == 2


def test_eight_vertex_one_shot_versus_iterated_linearity():
    ideal = edge_ideal(EIGHT_VERTEX)
    one_shot, _ = polarize(
        colon_by_monomial(
            power(ideal, 3),
            ideal.monomial("x2*x3").mul(ideal.monomial("x4*x5")),
        )
    )
    iterated = iterated_colon(ideal, [("x2", "x3"), ("x4", "x5")])
    assert one_shot != iterated
    assert not has_linear_resolution(one_shot)
    assert has_linear_resolution(iterated)


def test_has_linear_resolution_examples():
    assert has_linear_resolution(edge_ideal(complete_bipartite(3, 3)))
    assert not has_linear_resolution(edge_ideal(cycle(6)))
    with pytest.raises(ValueError):
        has_linear_resolution(ideal_from_text(("x1", "x2"), ["x1*x2", "x1^3"]))


def test_lattice_cap_is_enforced():
    with pytest.raises(ResourceLimitError):
        betti_table(edge_ideal(cycle(8)), caps=Caps(max_lattice=10))


@pytest.mark.parametrize("char", [1, 4, 6, 9, -3])
def test_bad_characteristic_rejected_before_any_rank(char):
    # I(P2) has one generator, and its only complex, {empty set}, takes no
    # matrix rank: the check must not wait for one
    for ideal in (edge_ideal(path(2)), edge_ideal(cycle(6))):
        with pytest.raises(ValueError, match="characteristic"):
            betti_table(ideal, char=char)


def test_betti_matches_taylor_oracle_exhaustive():
    cases = [edge_ideal(g) for g in enumerate_family("graphs:5")]
    for g in enumerate_family("forests:4"):
        square = power(edge_ideal(g), 2)
        if square.n_generators() <= 10:
            cases.append(square)
    for ideal in cases:
        for char in (0, 2):
            assert betti_table(ideal, char=char, check=True).entries == taylor_betti(
                ideal, char=char
            ), (ideal.to_text(), char)


def test_check_catches_a_collapse_that_changes_homology(monkeypatch):
    collapse = betti_module._strong_collapse
    monkeypatch.setattr(
        betti_module, "_strong_collapse", lambda facets: collapse(facets)[:-1]
    )
    ideal = edge_ideal(cycle(5))
    assert betti_table(ideal).entries != taylor_betti(ideal)
    with pytest.raises(ArithmeticError, match="collapse"):
        betti_table(ideal, check=True)


def test_rank_calls_and_lattice_size_are_fixed(monkeypatch):
    calls = []
    ranks = betti_module.reduced_homology_ranks

    def counting(*args, **kwargs):
        calls.append(1)
        return ranks(*args, **kwargs)

    monkeypatch.setattr(betti_module, "reduced_homology_ranks", counting)
    i6, i10 = edge_ideal(cycle(6)), edge_ideal(cycle(10))
    # distinct collapsed cores that are not a simplex
    for ideal, want in ((i6, 4), (power(i6, 2), 9), (power(i10, 2), 65)):
        calls.clear()
        betti_table(ideal)
        assert len(calls) == want, ideal.to_text()
    assert len(lcm_lattice(power(i10, 2))) == 12084


def test_exponents_wider_than_a_byte():
    assert reg_power(path(2), 200) == 400
    for gens in (
        ["x^127*y", "x*y^127", "y^3*z^2"],  # largest exponent fills its field
        ["x^127*y", "x*y^128", "x^2*z^255"],  # exponents on both sides of 2^7
    ):
        ideal = ideal_from_text(("x", "y", "z"), gens)
        for char in (0, 2):
            assert betti_table(ideal, char=char, check=True).entries == taylor_betti(
                ideal, char=char
            ), gens
