"""Acceptance suite: exhaustive property checks at desk scale.

Each criterion quantifies over a full catalog (all categories with at
most four non-identity arrows plus the named fixtures; all Heyting
algebras and frames with at most eight elements) and requires zero
mismatches.  One pass/fail line per criterion is printed; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import time

import pytest

from demorgan.errors import InputError
from demorgan.fincat import right_ore
from demorgan.fixtures import category_fixtures, frm5
from demorgan.heyting import (
    cons,
    has_boolean_property,
    has_de_morgan_property,
    is_boolean_algebra,
    is_de_morgan_algebra,
)
from demorgan.frames import (
    demorganize_frame,
    enumerate_nuclei,
    fixset,
    is_almost_discrete,
    is_dense_nucleus,
    is_extremally_disconnected,
)
from demorgan.catalog import enumerate_frames
from demorgan.sieves import Sieve, b_sieve, m_sieve, pullback_sieve
from demorgan.subobjects import (
    frame_as_site,
    oracle_is_boolean,
    oracle_is_demorgan,
)
from demorgan.topology import (
    booleanize_site,
    closure_of_sieve,
    countroc_witness,
    demorgan_topology,
    demorganize_site,
    dense_topology,
    generate_topology,
    is_boolean_general,
    is_boolean_reduced,
    is_demorgan_general,
    is_demorgan_reduced,
    leq_topology,
    no_empty_covers,
    trivial_topology,
    validate_topology,
)


def report(number, label, mismatches, started, expected=0):
    elapsed = time.time() - started
    status = "PASS" if mismatches == expected else "FAIL"
    print(f"criterion {number:2d} [{label}]: {status} "
          f"(mismatches={mismatches}, {elapsed:.1f}s)")
    assert mismatches == expected, f"criterion {number}: {mismatches} mismatches"


def all_sieves(C, obj):
    ci = C._object_index(obj)
    return [Sieve(obj, C._mask_to_members(m)) for m in C._sieve_masks(ci)]


def test_criterion_01_ore_iff_demorgan_presheaf(catalog4):
    t0 = time.time()
    cats = list(category_fixtures().values()) + list(catalog4)
    assert len(category_fixtures()) >= 12
    mism = sum(
        1 for C in cats
        if right_ore(C) != is_demorgan_general(C, trivial_topology(C))
    )
    report(1, "right Ore iff presheaf De Morgan", mism, t0)


def test_criterion_02_demorgan_iff_demorgan_topology_below(site_enumeration):
    t0 = time.time()
    mism = 0
    for C, tops in site_enumeration:
        M = demorgan_topology(C)
        for J in tops:
            if not no_empty_covers(J):
                continue
            if is_demorgan_general(C, J) != leq_topology(M, J):
                mism += 1
    report(2, "De Morgan iff M below J", mism, t0)


def test_criterion_03_boolean_iff_dense_below(site_enumeration):
    t0 = time.time()
    mism = 0
    # The fixtures add the commutative square: the one reduced category
    # of a fixture or catalog site that the catalog does not contain.
    fixture_sites = [(C, ()) for C in category_fixtures().values()]
    for C, tops in list(site_enumeration) + fixture_sites:
        D = dense_topology(C)
        seeds = [
            b_sieve(C, S) for obj in C.objects for S in all_sieves(C, obj)
        ]
        if generate_topology(C, seeds) != D:
            mism += 1
        for J in tops:
            if not no_empty_covers(J):
                continue
            if is_boolean_general(C, J) != leq_topology(D, J):
                mism += 1
    report(3, "Boolean iff dense below J; dense generated by b-sieves", mism, t0)


def test_criterion_04_oracle_agreement(site_enumeration):
    t0 = time.time()
    mism = 0
    for C, tops in site_enumeration:
        for J in tops:
            dm = is_demorgan_general(C, J)
            if oracle_is_demorgan(C, J) != dm or is_demorgan_reduced(C, J) != dm:
                mism += 1
            bl = is_boolean_general(C, J)
            if oracle_is_boolean(C, J) != bl or is_boolean_reduced(C, J) != bl:
                mism += 1
    report(4, "three-way agreement of decision methods", mism, t0)


def test_criterion_05_demorganization_is_minimum(site_enumeration):
    t0 = time.time()
    mism = 0
    for C, tops in site_enumeration:
        nec = [J for J in tops if no_empty_covers(J)]
        dm = [is_demorgan_general(C, J) for J in nec]
        bl = [is_boolean_general(C, J) for J in nec]
        for J in nec:
            for flags, target in (
                (dm, demorganize_site(C, J)),
                (bl, booleanize_site(C, J)),
            ):
                above = [
                    K for K, good in zip(nec, flags)
                    if good and leq_topology(J, K)
                ]
                minima = [
                    K for K in above
                    if all(leq_topology(K, K2) for K2 in above)
                ]
                if len(minima) != 1 or minima[0] != target:
                    mism += 1
    report(5, "DeMorganization/Booleanization are minima", mism, t0)


def test_criterion_06_right_ore_always_demorgan(site_enumeration):
    t0 = time.time()
    mism = 0
    for C, tops in site_enumeration:
        if not right_ore(C):
            continue
        for J in tops:
            if no_empty_covers(J) and not is_demorgan_general(C, J):
                mism += 1
    report(6, "right Ore forces De Morgan at every topology", mism, t0)


def test_criterion_07_property_equivalences(heyting_catalog):
    t0 = time.time()
    mism = 0
    for H in heyting_catalog:
        if has_de_morgan_property(H) != is_de_morgan_algebra(H):
            mism += 1
        if has_boolean_property(H) != is_boolean_algebra(H):
            mism += 1
    report(7, "separator properties match algebra laws", mism, t0)


def test_criterion_08_frame_demorganization_least_dense(frame_catalog):
    t0 = time.time()
    mism = 0
    spot = demorganize_frame(frm5())
    if len(spot[1]) != 4 or not is_boolean_algebra(spot[1]):
        mism += 1
    for F in frame_catalog:
        j, q = demorganize_frame(F)
        if not is_dense_nucleus(F, j) or not is_de_morgan_algebra(q):
            mism += 1
            continue
        for k in enumerate_nuclei(F):
            if is_dense_nucleus(F, k) and is_de_morgan_algebra(fixset(F, k)):
                if not j.leq(k):
                    mism += 1
    report(8, "frame DeMorganization is the least dense nucleus", mism, t0)


def test_criterion_09_frame_site_bridge():
    t0 = time.time()
    mism = 0
    for F in enumerate_frames(6):
        C, J = frame_as_site(F)
        try:
            validate_topology(C, J)
        except InputError:
            mism += 1
        dm = is_de_morgan_algebra(F)
        if not (dm == is_extremally_disconnected(F) == is_demorgan_general(C, J)):
            mism += 1
        bl = is_boolean_algebra(F)
        if not (bl == is_almost_discrete(F) == is_boolean_general(C, J)):
            mism += 1
    report(9, "frame laws match site decisions and topology", mism, t0)


def test_criterion_10_cons_properties(heyting_catalog):
    t0 = time.time()
    mism = 0
    for H in heyting_catalog:
        bot = H.bottom
        nonzero = frozenset(x for x in H.elements if x != bot)
        cons_of = {h: cons(H, h) for h in H.elements}
        for h in H.elements:
            if (H.negation(h) == bot) != (cons_of[h] == nonzero):
                mism += 1
            nnh = H.negation(H.negation(h))
            for h2 in H.elements:
                if H.leq(h2, nnh) != (cons_of[h2] <= cons_of[h]):
                    mism += 1
            regular = nnh == h
            reflected = all(
                H.leq(h2, h)
                for h2 in H.elements
                if cons_of[h2] <= cons_of[h]
            )
            if regular != reflected:
                mism += 1
        injective = len(set(cons_of.values())) == len(H.elements)
        order_reflecting = all(
            H.leq(a, b)
            for a in H.elements
            for b in H.elements
            if cons_of[a] <= cons_of[b]
        )
        if is_boolean_algebra(H) != (injective and order_reflecting):
            mism += 1
    report(10, "consistency-set properties", mism, t0)


def test_criterion_11_witness_implies_not_demorgan(site_enumeration):
    t0 = time.time()
    mism = 0
    witnesses = 0
    for C, tops in site_enumeration:
        for J in tops:
            if not no_empty_covers(J):
                continue
            if countroc_witness(C, J) is not None:
                witnesses += 1
                if is_demorgan_general(C, J):
                    mism += 1
    assert witnesses > 0
    report(11, f"{witnesses} witnesses all refute De Morgan", mism, t0)


def test_criterion_12_pullback_and_closure_stability(site_enumeration):
    t0 = time.time()
    mism = 0
    for C, tops in site_enumeration:
        sieves = {
            obj: all_sieves(C, obj) for obj in C.objects
        }
        for obj, obj_sieves in sieves.items():
            for R in obj_sieves:
                MR = m_sieve(C, R)
                for f in C.arrows_into(obj):
                    if pullback_sieve(C, f, MR) != m_sieve(
                        C, pullback_sieve(C, f, R)
                    ):
                        mism += 1
        for J in tops:
            if not no_empty_covers(J):
                continue
            for obj, obj_sieves in sieves.items():
                for R in obj_sieves:
                    if m_sieve(C, closure_of_sieve(C, J, R)) != m_sieve(C, R):
                        mism += 1
    report(12, "pullback compatibility and closure stability", mism, t0)
