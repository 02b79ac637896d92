"""Simplicial complexes, exact matrix rank, and reduced homology."""

import random

import pytest

from edgeideal.homology import (
    SimplicialComplex,
    _strong_collapse,
    boundary_matrix,
    matrix_rank,
    reduced_homology_rank,
    reduced_homology_ranks,
)

from oracles import fraction_rank


def test_facets_are_maximalized():
    c = SimplicialComplex(3, [[0, 1], [0], [1, 2], [2]])
    assert c.facet_masks == (0b011, 0b110)
    assert c.dimension() == 1
    assert c.f_vector() == (1, 3, 2)


def test_void_versus_empty_face():
    void = SimplicialComplex(3, [])
    assert void.is_void() and void.dimension() == -2
    assert void.f_vector() == ()
    assert reduced_homology_ranks(void) == {}

    point_of_nothing = SimplicialComplex(3, [[]])
    assert not point_of_nothing.is_void()
    assert point_of_nothing.dimension() == -1
    # the complex {empty set} carries one class in dimension -1
    assert reduced_homology_ranks(point_of_nothing) == {-1: 1}


def test_single_point_is_acyclic():
    c = SimplicialComplex(1, [[0]])
    assert reduced_homology_ranks(c) == {-1: 0, 0: 0}
    assert c.is_cone()


def test_cone_detection():
    c = SimplicialComplex(3, [[0, 1], [0, 2]])
    assert c.is_cone()
    assert not SimplicialComplex(3, [[0, 1], [2]]).is_cone()
    assert not SimplicialComplex(1, []).is_cone()


def test_circle_homology():
    circle = SimplicialComplex(3, [[0, 1], [1, 2], [0, 2]])
    assert reduced_homology_ranks(circle) == {-1: 0, 0: 0, 1: 1}


def test_two_points_have_reduced_h0():
    c = SimplicialComplex(2, [[0], [1]])
    assert reduced_homology_rank(c, 0) == 1


def test_sphere_homology():
    # boundary of the tetrahedron
    sphere = SimplicialComplex(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert reduced_homology_ranks(sphere, check=True) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_projective_plane_torsion_appears_only_mod_2():
    # minimal 6-vertex triangulation
    rp2 = SimplicialComplex(
        6,
        [
            [0, 1, 2], [0, 2, 3], [0, 1, 5], [0, 4, 5], [0, 3, 4],
            [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5],
        ],
    )
    assert reduced_homology_ranks(rp2, char=0) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_homology_ranks(rp2, char=2) == {-1: 0, 0: 0, 1: 1, 2: 1}
    assert reduced_homology_ranks(rp2, char=3) == {-1: 0, 0: 0, 1: 0, 2: 0}


def _core(c: SimplicialComplex) -> SimplicialComplex:
    core = _strong_collapse(c.facet_masks)
    vertices = 0
    for f in core:
        vertices |= f
    n = vertices.bit_length()
    assert vertices == (1 << n) - 1  # renumbered densely
    return SimplicialComplex.from_masks(n, core)


def _nonzero(ranks):
    return {d: r for d, r in ranks.items() if r}


def test_strong_collapse_keeps_homology_and_leaves_no_dominated_vertex():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(5, 8)
        facets = [
            [v for v in range(n) if rng.random() < 0.45]
            for _ in range(rng.randint(2, 7))
        ]
        c = SimplicialComplex(n, facets)
        core = _core(c)
        for char in (0, 2, 3):
            assert _nonzero(reduced_homology_ranks(core, char)) == _nonzero(
                reduced_homology_ranks(c, char)
            ), (facets, char)
        for v in range(core.n_vertices):
            shared = -1
            for f in core.facet_masks:
                if f >> v & 1:
                    shared &= f
            assert shared == 1 << v, (facets, core.facet_masks)


def test_strong_collapse_of_cones_and_spheres():
    cone = SimplicialComplex(5, [[0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 3, 4]])
    assert len(_core(cone).facet_masks) == 1
    simplex = SimplicialComplex(4, [[0, 1, 2, 3]])
    assert _core(simplex).facet_masks == (1,)
    sphere = SimplicialComplex(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert _core(sphere).facet_masks == sphere.facet_masks
    rp2 = SimplicialComplex(
        6,
        [
            [0, 1, 2], [0, 2, 3], [0, 1, 5], [0, 4, 5], [0, 3, 4],
            [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5],
        ],
    )
    assert len(_core(rp2).facet_masks) > 1
    # {empty set} and the void complex have no vertex to delete
    assert _strong_collapse((0,)) == (0,)
    assert _strong_collapse(()) == ()


def test_boundary_matrix_squares_to_zero():
    sphere = SimplicialComplex(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    faces = sphere.faces_by_dim()
    d2 = boundary_matrix(faces[1], faces[2])
    d1 = boundary_matrix(faces[0], faces[1])
    # compose: for each triangle row, push through d1 and collect
    for row in d2:
        acc = {}
        for edge_col, coef in row.items():
            for vert_col, coef1 in d1[edge_col].items():
                acc[vert_col] = acc.get(vert_col, 0) + coef * coef1
        assert all(v == 0 for v in acc.values())


def test_matrix_rank_against_dense_fraction_elimination():
    rng = random.Random(17)
    for trial in range(150):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        char = rng.choice([0, 0, 0, 2, 3, 5])
        dense = [
            [rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        sparse = [
            {j: v for j, v in enumerate(row) if v} for row in dense
        ]
        assert matrix_rank(sparse, char, check=True) == fraction_rank(dense, char), (
            trial,
            dense,
            char,
        )


def test_matrix_rank_rejects_bad_characteristic():
    with pytest.raises(ValueError):
        matrix_rank([{0: 1}], char=1)
    with pytest.raises(ValueError):
        matrix_rank([{0: 1}], char=-2)
    # 9, a strong pseudoprime to the bases 2, 3, 5 and 7, and a value past
    # the range where the primality test is exact
    for char in (9, 3215031751, 2**64 + 13):
        with pytest.raises(ValueError):
            matrix_rank([{0: 1}], char=char)
    assert matrix_rank([{0: 2, 1: 4}, {0: 1, 1: 2}], char=2**61 - 1) == 1


def test_euler_characteristic_identity_random_complexes():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 6)
        facets = [
            [v for v in range(n) if rng.random() < 0.5]
            for _ in range(rng.randint(1, 5))
        ]
        c = SimplicialComplex(n, facets)
        faces = c.faces_by_dim()
        ranks = reduced_homology_ranks(c, check=True)
        euler_faces = sum((-1) ** d * len(fs) for d, fs in faces.items())
        euler_homology = sum((-1) ** d * h for d, h in ranks.items())
        assert euler_faces == euler_homology
