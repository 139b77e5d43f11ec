"""The recollement at the complement corner of kA3, where i^! is not exact.

This side exercises the intermediate extension in the regime where it
differs from j_*: torsion-free gluing and the monobrick/semibrick gluing
through j_!* hold without any exactness hypothesis.
"""

import pytest

from schurrec.algebras import IdempotentSpec
from schurrec.census import all_monobricks
from schurrec.modules import is_isomorphic, is_isomorphism
from schurrec.recollements import (
    build_recollement,
    glue_bricks,
    glue_subcategory,
    verify_theorem,
)
from schurrec.subcats import (
    id_mask,
    is_monobrick,
    is_semibrick,
    is_torsion_free,
)
from conftest import a3_algebra
from slow_paths import theta


@pytest.fixture(scope="module")
def rec2():
    alg = a3_algebra()
    return build_recollement(alg, IdempotentSpec(alg, (1, 2)), bound=3)


def test_this_side_is_not_exact(rec2):
    exact, cert = rec2.is_i_shriek_exact()
    assert not exact
    assert cert.structural is False and cert.direct is False


def test_j_intermediate_differs_from_j_star_somewhere(rec2):
    differs = False
    for nid in rec2.u_c.ids:
        n = rec2.u_c.module(nid)
        jm = rec2.apply("j_intermediate", n)
        js = rec2.apply("j_star", n)
        if not is_isomorphic(jm, js):
            differs = True
    assert differs


def test_theta_restricts_to_iso_on_the_corner(rec2):
    # the canonical map j_! -> j_* is the adjunction image of the identity,
    # so j^* theta must be invertible for every corner module
    for nid in rec2.u_c.ids:
        n = rec2.u_c.module(nid)
        restricted = rec2.apply_to_morphism("j_upper", theta(rec2, n))
        assert all(
            mat.shape[0] == mat.shape[1] for mat in restricted.mats
        )
        assert is_isomorphism(restricted)


def test_adjunction_dimension_laws_hold_without_exactness(rec2):
    report = rec2.axiom_report()
    assert report["ok"], report["counterexamples"]


def test_monobrick_gluing_without_exactness(rec2):
    mono_b = all_monobricks(rec2.u_b)
    mono_c = all_monobricks(rec2.u_c)
    for eb in mono_b.entries:
        for ec in mono_c.entries:
            glued = glue_bricks(rec2, id_mask(eb.ids), id_mask(ec.ids))
            assert is_monobrick(rec2.u_a, glued)


def test_semibrick_gluing_without_exactness(rec2):
    mono_b = all_monobricks(rec2.u_b)
    mono_c = all_monobricks(rec2.u_c)
    for eb in mono_b.entries:
        if not eb.flags["semibrick"]:
            continue
        for ec in mono_c.entries:
            if not ec.flags["semibrick"]:
                continue
            glued = glue_bricks(rec2, id_mask(eb.ids), id_mask(ec.ids), "semibrick")
            assert is_semibrick(rec2.u_a, glued)


def test_torf_gluing_law_holds_without_exactness(rec2):
    report = verify_theorem(rec2, "3.4")
    assert report["ok"], report["counterexamples"]
    assert not report.get("skipped")
    assert not report["hypothesis_exact"]


def test_schur_law_is_skipped_without_certificate(rec2):
    report = verify_theorem(rec2, "3.2")
    assert report.get("skipped")


def test_simples_glue_even_without_exactness(rec2):
    assert rec2.simple_gluing_report()["ok"]


def test_glued_torf_classes_validate(rec2):
    # every pair of edge torsion-free classes glues to a torsion-free class
    nb, nc = len(rec2.u_b), len(rec2.u_c)
    for y in range(2 ** nb):
        if not is_torsion_free(rec2.u_b, y):
            continue
        for z in range(2 ** nc):
            if not is_torsion_free(rec2.u_c, z):
                continue
            assert is_torsion_free(rec2.u_a, glue_subcategory(rec2, y, z, "torf"))
