import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurrec import fields as ff
from schurrec.modules import (
    HomSpace,
    Morphism,
    ShortExactSequence,
    build_universe,
    direct_sum,
    ext1_basis,
    is_injective,
    is_isomorphism,
    quotient_by_rows,
    submodule_from_rows,
)
from schurrec.subcats import (
    filt_closure,
    id_mask,
    is_cofinally_closed,
    is_extension_closed,
    is_left_schur,
    is_left_schurian,
    is_monobrick,
    is_semibrick,
    is_torsion_free,
    is_wide,
    mask_ids,
    sim,
)
from conftest import a2_algebra, a3_algebra
from slow_paths import (
    Filtration,
    carry_filtration,
    filtration_witness_unfiltered,
    merge_filtrations,
    middle_term,
    subspace_intersection,
    summand_audit_by_search,
    trivial_filtration,
)


@pytest.fixture(scope="module")
def u2():
    return build_universe(a2_algebra(), 2)


@pytest.fixture(scope="module")
def u3():
    return build_universe(a3_algebra(), 3)


def uid(u, dims):
    hits = [i for i in u.ids if u.module(i).dims == tuple(dims)]
    assert len(hits) == 1
    return hits[0]


@pytest.fixture(scope="module")
def a2_ids(u2):
    return {
        "2": uid(u2, (1, 0)),
        "3": uid(u2, (0, 1)),
        "23": uid(u2, (1, 1)),
    }


@pytest.fixture(scope="module")
def a3_ids(u3):
    return {
        "1": uid(u3, (1, 0, 0)),
        "2": uid(u3, (0, 1, 0)),
        "3": uid(u3, (0, 0, 1)),
        "12": uid(u3, (1, 1, 0)),
        "23": uid(u3, (0, 1, 1)),
        "123": uid(u3, (1, 1, 1)),
    }


# --- brick-set predicates ---------------------------------------------------


def test_empty_set_is_everything(u2):
    assert is_semibrick(u2, 0)
    assert is_monobrick(u2, 0)
    assert is_cofinally_closed(u2, 0)


def test_simples_form_semibrick(u2, a2_ids):
    s = id_mask((a2_ids["2"], a2_ids["3"]))
    assert is_semibrick(u2, s)
    assert is_monobrick(u2, s)


def test_socle_inclusion_breaks_semibrick_not_monobrick(u2, a2_ids):
    s = id_mask((a2_ids["3"], a2_ids["23"]))
    assert not is_semibrick(u2, s)
    assert is_monobrick(u2, s)


def test_projection_breaks_monobrick(u2, a2_ids):
    assert not is_monobrick(u2, id_mask((a2_ids["23"], a2_ids["2"])))


def test_every_semibrick_is_monobrick(u2, u3):
    for u in (u2, u3):
        bricks = list(u.ids)
        for r in range(len(bricks) + 1):
            for combo in itertools.combinations(bricks, r):
                s = id_mask(combo)
                if is_semibrick(u, s):
                    assert is_monobrick(u, s)


def test_cofinal_closure_on_a2(u2, a2_ids):
    assert is_cofinally_closed(u2, id_mask(u2.ids))
    # 3 embeds into 2/3 but every nonzero map 3 -> 2/3 is injective
    assert not is_cofinally_closed(u2, id_mask((a2_ids["23"],)))
    assert is_cofinally_closed(u2, id_mask((a2_ids["3"], a2_ids["23"])))


# --- filt closure -----------------------------------------------------------


def test_filt_closure_empty(u2):
    assert filt_closure(u2, 0) == 0


def test_filt_closure_simples_is_everything(u2, a2_ids):
    c = filt_closure(u2, id_mask((a2_ids["2"], a2_ids["3"])))
    assert mask_ids(c) == tuple(sorted(u2.ids))


def test_filt_closure_stable_set(u2, a2_ids):
    gens = (a2_ids["3"], a2_ids["23"])
    assert mask_ids(filt_closure(u2, id_mask(gens))) == tuple(sorted(gens))


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_filt_closure_is_closure_operator(u3, data):
    ids = data.draw(st.sets(st.sampled_from(list(u3.ids)), max_size=4))
    c1 = filt_closure(u3, id_mask(ids))
    assert set(ids) <= set(mask_ids(c1))  # extensive
    bigger = data.draw(st.sets(st.sampled_from(list(u3.ids)), max_size=2))
    c2 = filt_closure(u3, id_mask(ids | bigger))
    assert set(mask_ids(c1)) <= set(mask_ids(c2))  # monotone
    assert filt_closure(u3, c1) == c1  # idempotent


def test_filt_closure_output_extension_closed(u3):
    rng = random.Random(7)
    for _ in range(10):
        gens = tuple(rng.sample(list(u3.ids), rng.randint(0, 3)))
        c = filt_closure(u3, id_mask(gens))
        assert is_extension_closed(u3, c)


def test_summand_audit_passes_on_monobrick_closures(u2, u3):
    for u in (u2, u3):
        for r in range(len(u.ids) + 1):
            for combo in itertools.combinations(u.ids, min(r, 3)):
                if not is_monobrick(u, id_mask(combo)):
                    continue
                c = filt_closure(u, id_mask(combo))
                assert summand_audit_by_search(u, c, combo)["ok"]


def test_summand_audit_flags_non_summand_closed_filt(u3, a3_ids):
    # {2/3, 1/2} is not a monobrick, and the extension of 1/2 by 2/3 has the
    # decomposable middle term 1/2/3 ⊕ 2 whose summands admit no filtration
    # by the generators; the audit must surface that, not hide it.
    gens = (a3_ids["23"], a3_ids["12"])
    c = filt_closure(u3, id_mask(gens))
    assert a3_ids["2"] in mask_ids(c) and a3_ids["123"] in mask_ids(c)
    report = summand_audit_by_search(u3, c, gens)
    assert not report["ok"]
    assert set(report["misses"]) == {a3_ids["2"], a3_ids["123"]}


# --- sim ---------------------------------------------------------------------


def test_sim_of_whole_category_is_simples(u2, a2_ids):
    assert sim(u2, id_mask(u2.ids)) == id_mask((a2_ids["2"], a2_ids["3"]))


def test_sim_of_stable_pair(u2, a2_ids):
    e = id_mask((a2_ids["3"], a2_ids["23"]))
    assert sim(u2, e) == e


def test_sim_of_zero_is_empty(u2):
    assert sim(u2, 0) == 0


# --- left Schur / wide / torf -------------------------------------------------


def test_left_schurian_examples(u2, a2_ids):
    assert is_left_schurian(u2, a2_ids["3"], id_mask(u2.ids))
    assert not is_left_schurian(u2, a2_ids["23"], id_mask((a2_ids["2"],)))
    assert is_left_schurian(u2, a2_ids["23"], 0)


def test_left_schur_examples(u2, a2_ids):
    assert is_left_schur(u2, id_mask(u2.ids))
    assert is_left_schur(u2, id_mask((a2_ids["3"], a2_ids["23"])))
    assert not is_left_schur(u2, id_mask((a2_ids["23"], a2_ids["2"])))


def test_zero_subcategory_has_all_flags(u2):
    zero = 0
    assert is_extension_closed(u2, zero)
    assert is_torsion_free(u2, zero)
    assert is_wide(u2, zero)
    assert is_left_schur(u2, zero)


def test_wide_but_not_torf(u2, a2_ids):
    e = id_mask((a2_ids["23"],))
    assert is_wide(u2, e)
    assert not is_torsion_free(u2, e)


def test_torf_but_not_wide(u2, a2_ids):
    e = id_mask((a2_ids["3"], a2_ids["23"]))
    assert is_torsion_free(u2, e)
    assert not is_wide(u2, e)


def test_torf_and_wide_imply_left_schur(u3):
    for r in range(len(u3.ids) + 1):
        for combo in itertools.combinations(u3.ids, r):
            e = id_mask(combo)
            if is_torsion_free(u3, e) or is_wide(u3, e):
                assert is_left_schur(u3, e)


# --- the schurian reduction lemma --------------------------------------------


def test_injective_into_sum_iff_kernels_intersect_trivially(u3):
    rng = random.Random(11)
    p = 2
    for _ in range(30):
        m, c1, c2 = (u3.module(rng.choice(list(u3.ids))) for _ in range(3))
        total = direct_sum([c1, c2])
        h1, h2 = HomSpace(m, c1), HomSpace(m, c2)
        if not (h1.dim or h2.dim):
            continue
        f1 = h1.element([rng.randrange(p) for _ in range(h1.dim)])
        f2 = h2.element([rng.randrange(p) for _ in range(h2.dim)])
        combined = Morphism(
            m, total,
            tuple(np.concatenate([a, b], axis=1) for a, b in zip(f1.mats, f2.mats)),
        )
        kernels_trivial = all(
            subspace_intersection(
                ff.row_kernel(a, p), ff.row_kernel(b, p), p
            ).shape[0] == 0
            for a, b in zip(f1.mats, f2.mats)
        )
        assert is_injective(combined) == kernels_trivial


def test_schurian_reduction_matches_direct_scan(u2, a2_ids):
    # scanning Hom(M, C1 ⊕ C2) directly agrees with the pairwise rule
    m = u2.module(a2_ids["23"])
    for i in u2.ids:
        for j in u2.ids:
            c1, c2 = u2.module(i), u2.module(j)
            total = direct_sum([c1, c2])
            direct = all(is_injective(f) for f in HomSpace(m, total).elements())
            e = id_mask((i, j))
            assert is_left_schurian(u2, a2_ids["23"], e) == direct


# --- filtrations ---------------------------------------------------------------


def make_ses(u, big_dims, sub_rows):
    m = [mm for mm in u.modules if mm.dims == tuple(big_dims)][0]
    sub, incl = submodule_from_rows(m, sub_rows)
    parts = quotient_by_rows(m, sub_rows)
    return ShortExactSequence(incl, parts.projection)


def test_merge_filtrations_nonsplit(u2, a2_ids):
    p2 = u2.module(a2_ids["23"])
    rows = [ff.zeros(0, 1), ff.eye(1)]  # the socle S3 inside 2/3
    sub, incl = submodule_from_rows(p2, rows)
    parts = quotient_by_rows(p2, rows)
    ses = ShortExactSequence(incl, parts.projection)
    fx = trivial_filtration(u2, ses.sub)
    fz = trivial_filtration(u2, ses.quot)
    merged = merge_filtrations(ses, fx, fz)
    assert merged.classes == (a2_ids["3"], a2_ids["2"])
    assert merged.validate()


def test_merge_with_zero_quotient(u2, a2_ids):
    p2 = u2.module(a2_ids["23"])
    full = [ff.eye(1), ff.eye(1)]
    sub, incl = submodule_from_rows(p2, full)
    parts = quotient_by_rows(p2, full)
    ses = ShortExactSequence(incl, parts.projection)
    fx = filtration_witness_unfiltered(u2, ses.sub, u2.ids)
    fz = trivial_filtration(u2, ses.quot)  # zero module, empty chain
    merged = merge_filtrations(ses, fx, fz)
    assert merged.classes == fx.classes
    assert merged.validate()


def test_merge_split_case(u2, a2_ids):
    s2, s3 = u2.module(a2_ids["2"]), u2.module(a2_ids["3"])
    ext = ext1_basis(s2, s3)
    ses = middle_term(ext, ext.element([0] * ext.dim))  # the zero class: s3 ⊕ s2
    merged = merge_filtrations(
        ses, trivial_filtration(u2, s3), trivial_filtration(u2, s2)
    )
    assert merged.classes == (a2_ids["3"], a2_ids["2"])
    assert merged.validate()


def test_merged_witnesses_fail_validate_when_tampered(u3, a3_ids):
    gens = [a3_ids["1"], a3_ids["2"], a3_ids["3"]]
    witnesses = {i: filtration_witness_unfiltered(u3, u3.module(i), gens) for i in u3.ids}
    reversals = carried = 0
    for w in witnesses.values():
        assert w.validate()
        if len(w.classes) < 2:
            continue
        # 1/2/3 and the length-two uniserials have distinct top and socle
        assert not Filtration(u3, w.ambient, w.chain, w.classes[::-1]).validate()
        reversals += 1
        for target in u3.ids:
            for f in HomSpace(w.ambient, u3.module(target)).basis:
                if not is_isomorphism(f):
                    assert not carry_filtration(w, f).validate()
                    carried += 1
    assert reversals == 3 and carried > 0


def test_filtration_witness_finds_uniserial_chain(u3, a3_ids):
    m = u3.module(a3_ids["123"])
    w = filtration_witness_unfiltered(u3, m, (a3_ids["1"], a3_ids["2"], a3_ids["3"]))
    assert w is not None
    assert w.validate()
    assert w.classes == (a3_ids["3"], a3_ids["2"], a3_ids["1"])


def test_filtration_witness_fails_when_class_missing(u3, a3_ids):
    m = u3.module(a3_ids["123"])
    assert filtration_witness_unfiltered(u3, m, (a3_ids["1"], a3_ids["3"])) is None


# --- id sets are masks ------------------------------------------------------------


def test_predicates_take_masks_only(u2):
    """Every closure and predicate reads its id set as an int mask; an id
    tuple, even an empty one, is a TypeError rather than a silent answer."""
    fns = (filt_closure, sim, is_extension_closed, is_left_schur, is_torsion_free, is_wide,
           is_semibrick, is_monobrick, is_cofinally_closed)
    for fn in fns:
        for ids in ((), (0,), frozenset({0})):
            with pytest.raises(TypeError):
                fn(u2, ids)
    with pytest.raises(TypeError):
        is_left_schurian(u2, 0, ())
    with pytest.raises(ValueError):
        mask_ids(-1)
    assert mask_ids(id_mask([2, 0, 2])) == (0, 2) and id_mask(()) == 0
