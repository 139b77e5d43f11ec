import pytest

from schurrec import fields as ff
from schurrec.algebras import (
    Algebra,
    Bimodule,
    IdempotentSpec,
    Quiver,
    algebra_from_quiver,
    canonical_bimodule_for_triangular,
    corner_algebra,
    find_algebra_isomorphism,
    linear_quiver,
    point_algebra,
    quotient_by_idempotent_ideal,
    triangular_matrix_algebra,
)
from schurrec.errors import InfiniteDimensional, InputError
from conftest import a2_algebra, a3_algebra


def count_paths(q: Quiver) -> int:
    """Independent path count by plain DFS over the arrow list."""
    total = len(q.vertices)
    frontier = [(a[1], a[2]) for a in q.arrows]
    while frontier:
        total += len(frontier)
        frontier = [
            (s, a[2]) for (s, t) in frontier for a in q.arrows if a[1] == t
        ]
    return total


def test_path_algebra_a2_dimension(ka2):
    assert ka2.dim == 3
    assert set(ka2.labels) == {"e_2", "e_3", "a23"}


def test_point_algebra_is_field(point):
    assert point.dim == 1
    assert point.nv == 1


def test_path_algebra_a3_dimension(ka3):
    # three trivial paths, two arrows, one length-2 path
    assert ka3.dim == 6


@pytest.mark.parametrize(
    "quiver",
    [
        linear_quiver(["1", "2", "3", "4"]),
        Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "1", "3"), ("c", "2", "3"))),
    ],
)
def test_dim_equals_path_count_for_acyclic(quiver):
    a = algebra_from_quiver(quiver, None, 2)
    assert a.dim == count_paths(quiver)


def test_loop_square_truncation(loop_sq):
    assert loop_sq.dim == 2  # e_1 and x, with x^2 = 0
    x = loop_sq.labels.index("x")
    assert not loop_sq.mult[x, x].any()


def test_loop_without_relation_is_infinite():
    q = Quiver(("1",), (("x", "1", "1"),))
    with pytest.raises(InfiniteDimensional) as exc:
        algebra_from_quiver(q, None, 2, max_path_len=8)
    assert "x" in str(exc.value)


def test_commutativity_relation_on_square():
    # 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 4 with ac = bd: one length-2 class survives
    q = Quiver(
        ("1", "2", "3", "4"),
        (("a", "1", "2"), ("b", "1", "3"), ("c", "2", "4"), ("d", "3", "4")),
    )
    rel = [[(1, ["a", "c"]), (-1, ["b", "d"])]]
    alg = algebra_from_quiver(q, rel, 3)
    assert alg.dim == count_paths(q) - 1


def test_corner_at_source_vertex_is_field(ka3):
    e = IdempotentSpec(ka3, (0,))  # vertex "1"
    corner, data = corner_algebra(ka3, e)
    assert corner.dim == 1
    assert data.index_map == (0,)


def test_corner_full_set_is_whole_algebra(ka3):
    e = IdempotentSpec(ka3, tuple(range(ka3.nv)))
    corner, _ = corner_algebra(ka3, e)
    assert corner.dim == ka3.dim


def test_corner_a3_away_from_source_is_a2(ka3, ka2):
    e = IdempotentSpec(ka3, (1, 2))  # vertices "2", "3"
    corner, _ = corner_algebra(ka3, e)
    assert corner.dim == 3
    assert find_algebra_isomorphism(corner, ka2) is not None


def test_quotient_a3_by_source_vertex_is_a2(ka3, ka2):
    e = IdempotentSpec(ka3, (0,))
    quot, data = quotient_by_idempotent_ideal(ka3, e)
    assert quot.dim == 3
    assert find_algebra_isomorphism(quot, ka2) is not None
    assert data.ideal_rows.shape[0] == 3  # e_1, a12, a12*a23


def test_quotient_by_all_vertices_is_zero(ka3):
    e = IdempotentSpec(ka3, tuple(range(ka3.nv)))
    quot, _ = quotient_by_idempotent_ideal(ka3, e)
    assert quot.dim == 0


def test_quotient_a2_by_sink(ka2):
    e = IdempotentSpec(ka2, (1,))  # vertex "3"
    quot, _ = quotient_by_idempotent_ideal(ka2, e)
    assert quot.dim == 1
    assert quot.vertex_labels == ("2",)


def test_triangular_zero_bimodule_is_product(ka2, point):
    m = Bimodule(0)
    alg, data = triangular_matrix_algebra(ka2, point, m)
    assert alg.dim == ka2.dim + 1
    # no cross block: every product between the parts vanishes
    for i in data.b_indices:
        for j in data.c_indices:
            assert not alg.mult[i, j].any() and not alg.mult[j, i].any()


def test_triangular_two_points_gives_a2(ka2):
    b = point_algebra(2, "3")
    c = point_algebra(2, "2")
    m = Bimodule(
        1,
        left={0: ff.eye(1)},
        right={0: ff.eye(1)},
    )
    alg, _ = triangular_matrix_algebra(b, c, m)
    assert alg.dim == 3
    assert find_algebra_isomorphism(alg, a2_algebra()) is not None


def test_triangular_recovers_a3(ka2, point, ka3):
    bim = canonical_bimodule_for_triangular(ka2, point, {"1": "2"}, 2)
    assert bim.dim == 2
    alg, data = triangular_matrix_algebra(ka2, point, bim)
    assert alg.dim == 6
    assert find_algebra_isomorphism(alg, ka3) is not None
    # corner and quotient at the canonical idempotent recover C and B
    corner, _ = corner_algebra(alg, data.e)
    assert corner.dim == 1
    quot, _ = quotient_by_idempotent_ideal(alg, data.e)
    assert find_algebra_isomorphism(quot, ka2) is not None


def test_triangular_rejects_broken_bimodule(ka2, point):
    bad = Bimodule(
        1,
        left={0: ff.eye(1)},
        right={0: ff.eye(1), 1: ff.eye(1), 2: ff.eye(1)},
    )
    with pytest.raises(InputError, match="not unital"):
        triangular_matrix_algebra(ka2, point, bad)


def test_presentation_arrows_of_a3(ka3):
    pres = ka3.presentation
    labels = [ka3.labels[a] for a in pres.arrows]
    assert sorted(labels) == ["a12", "a23"]
    # kA3 is hereditary with no relations among the arrow generators
    assert pres.relations == ()


def test_presentation_relations_of_loop(loop_sq):
    pres = loop_sq.presentation
    assert len(pres.arrows) == 1
    assert len(pres.relations) == 1  # x*x = 0


def test_algebra_hash_stable_and_sensitive(ka3):
    again = a3_algebra()
    assert ka3.algebra_hash == again.algebra_hash
    assert ka3.algebra_hash != a2_algebra().algebra_hash


def test_isomorphism_rejects_different_algebras(ka2):
    prod = triangular_matrix_algebra(point_algebra(2, "2"), point_algebra(2, "3"), Bimodule(0))[0]
    # k x k and kA2 share dimension vector data but are not isomorphic
    assert prod.dim == 2
    assert find_algebra_isomorphism(prod, ka2) is None


def test_relations_must_be_admissible(ka2):
    q = linear_quiver(["1", "2"])
    with pytest.raises(InputError):
        algebra_from_quiver(q, [[(1, ["a12"])]], 2)


def test_non_associative_table_names_its_first_failing_triple():
    a = algebra_from_quiver(linear_quiver(["1", "2", "3", "4"]), None, 2)
    idx = {lab: i for i, lab in enumerate(a.labels)}
    mult = a.mult.copy()
    # keep (a12 a23) a34 = a12*a23*a34 but set a12 (a23 a34) = 0
    mult[idx["a12"], idx["a23*a34"]] = 0
    with pytest.raises(InputError, match=r"associativity fails on basis triple \(a12, a23, a34\)"):
        Algebra(a.p, list(a.vertex_labels), list(a.labels), list(a.src), list(a.tgt), mult)
