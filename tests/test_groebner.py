"""Module Groebner bases, normal forms, complements, syzygies, intersections.

The reduced Groebner basis engine is the independent route to border bases;
besides its own unit tests it is cross-checked against sympy's groebner on
rank-1 (ideal) instances.
"""

import random
from fractions import Fraction

import pytest
import sympy

from modborder import (
    Poly,
    PreconditionError,
    TermOrder,
    Vector,
    gb_normal_form,
    groebner_basis,
    leading_module,
    macaulay_complement,
    module_border_basis,
    naive_border_basis,
    syzygies,
)
from modborder.groebner import ideal_intersection, modterm_divides

from conftest import PREBASIS7, pol, vec

SX, SY = sympy.symbols("x y")


def to_sympy(p):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * SX**a * SY**b
            for (a, b), c in p.coeffs.items()
        )
    )


def from_sympy(expr):
    poly = sympy.Poly(expr, SX, SY, domain="QQ")
    out = Poly.zero(2)
    for (a, b), c in poly.terms():
        out = out + Poly.monomial(2, (a, b), Fraction(c.p, c.q))
    return out


def rank1(polys):
    return [Vector.from_polys([p]) for p in polys]


def unrank1(vectors):
    return [v.component(1) for v in vectors]


# ---------------------------------------------------------------------------
# the reduced Groebner basis


def test_modterm_divides():
    assert modterm_divides(((1, 0), 1), ((2, 1), 1))
    assert not modterm_divides(((1, 0), 1), ((2, 1), 2))
    assert not modterm_divides(((0, 2), 1), ((1, 1), 1))


def same_vectors(a, b):
    key = lambda v: sorted(v.coeffs.items())
    return sorted(a, key=key) == sorted(b, key=key)


def test_reduced_gb_golden(order, mbba_gens, basis4):
    gb = groebner_basis(mbba_gens, order)
    # same four vectors; the GB is sorted by leading term, sigma-Pos
    # descending (x e2 > y e1 under the term-over-position comparison)
    assert same_vectors(gb, basis4.vectors())
    assert [g.leading_modterm(order)[0] for g in gb] == [
        ((1, 0), 1), ((1, 0), 2), ((0, 1), 1), ((0, 1), 2),
    ]


def test_reduced_gb_is_reduced(order):
    gens = [vec(s) for s in PREBASIS7]
    gb = groebner_basis(gens, order)
    lts = leading_module(gb, order)
    for g, lt in zip(gb, lts):
        assert g.coeff(lt) == 1
        # minimal: no other leading term divides this one
        assert not any(
            modterm_divides(other, lt) for other in lts if other != lt
        )
        # tail-reduced: no support term lies in the leading module
        for mt in g.support():
            if mt != lt:
                assert not any(modterm_divides(other, mt) for other in lts)
    keys = [order.mod_key(lt) for lt in lts]
    assert keys == sorted(keys, reverse=True)


def test_gb_of_zero_input(order):
    assert groebner_basis([], order) == []
    assert groebner_basis([Vector.zero(2, 2)], order) == []


def test_gb_is_generating_set_invariant(order, mbba_gens):
    # a GB is canonical for the submodule, not the generating set
    doubled = mbba_gens + [v.scale(Fraction(7)) for v in mbba_gens]
    combo = mbba_gens[0].mul_poly(pol("x*y - 2")) + mbba_gens[2]
    assert groebner_basis(doubled + [combo], order) == groebner_basis(
        mbba_gens, order
    )


def test_gb_matches_sympy_on_ideals(order, subideal_data):
    hgens, fgens = subideal_data
    for gens in (hgens, fgens, [pol("x^2 - y"), pol("x*y - 1")]):
        mine = unrank1(groebner_basis(rank1(gens), order))
        ref = sympy.groebner(
            [to_sympy(p) for p in gens], SX, SY, order="grevlex"
        )
        # sympy clears denominators, so renormalize to monic
        theirs = []
        for e in ref.exprs:
            p = from_sympy(e)
            _, lc = p.leading_term(order)
            theirs.append(p.scale(1 / lc))
        key = lambda p: sorted(p.coeffs.items())
        assert sorted(mine, key=key) == sorted(theirs, key=key)


# ---------------------------------------------------------------------------
# normal forms


def test_gb_normal_form_membership(order, mbba_gens):
    gb = groebner_basis(mbba_gens, order)
    combo = (
        mbba_gens[0].mul_poly(pol("x^2 - y + 1"))
        + mbba_gens[3].mul_poly(pol("x*y"))
        + mbba_gens[4].scale(Fraction(-5, 3))
    )
    assert gb_normal_form(gb, combo, order).is_zero()


def test_gb_normal_form_is_fully_reduced(order, mbba_gens):
    gb = groebner_basis(mbba_gens, order)
    lts = leading_module(gb, order)
    v = vec("x^3*e1 - x*y*e2 + 7*e1")
    nf = gb_normal_form(gb, v, order)
    for mt in nf.support():
        assert not any(modterm_divides(lt, mt) for lt in lts)
    # class invariance and linearity
    assert gb_normal_form(gb, v + mbba_gens[1].mul_poly(pol("y^2")), order) == nf
    w = vec("y*e1 - e2")
    assert gb_normal_form(gb, v + w, order) == nf + gb_normal_form(
        gb, w, order
    )
    assert gb_normal_form(gb, Vector.zero(2, 2), order).is_zero()


# ---------------------------------------------------------------------------
# Macaulay complements and the naive border basis route


def test_macaulay_complement_golden(order, mbba_gens):
    om = macaulay_complement(groebner_basis(mbba_gens, order), order)
    assert om.module_terms == [((0, 0), 1), ((0, 0), 2)]
    om1 = macaulay_complement(
        groebner_basis(rank1([pol("x^2"), pol("x*y"), pol("y^2")]), order),
        order,
    )
    assert [t for t, _ in om1.module_terms] == [(1, 0), (0, 1), (0, 0)]


def test_macaulay_complement_unit_leading_term(order):
    om = macaulay_complement(
        groebner_basis([vec("e1 + x*e2"), vec("y^2*e2"), vec("x*e2")], order),
        order,
    )
    # component 1 collapses entirely; component 2 keeps {y, 1}
    assert om.module_terms == [((0, 1), 2), ((0, 0), 2)]


def test_macaulay_complement_infinite(order):
    with pytest.raises(PreconditionError, match="not finite"):
        macaulay_complement(groebner_basis([vec("x*e1")], order), order)
    with pytest.raises(PreconditionError, match="zero submodule"):
        macaulay_complement([], order)


def test_naive_border_basis_agrees(order, mbba_gens):
    assert naive_border_basis(mbba_gens, order) == module_border_basis(
        mbba_gens, order
    )
    gens7 = [vec(s) for s in PREBASIS7]
    assert naive_border_basis(gens7, order) == module_border_basis(
        gens7, order
    )


# ---------------------------------------------------------------------------
# syzygies


def test_syzygies_golden(order, subideal_data):
    _, fgens = subideal_data
    assert syzygies(fgens, order) == [vec("(x + y + 1)*e1 + (-x + y)*e2")]
    # normalized monic at the sigma-Pos leading module term x e2
    assert syzygies([pol("x"), pol("y")], order) == [vec("x*e2 - y*e1")]
    assert syzygies([pol("x^2 + 1")], order) == []
    assert syzygies([], order) == []


def test_syzygies_are_syzygies(order):
    rng = random.Random(11)

    def rand_poly():
        p = Poly.zero(2)
        for _ in range(rng.randint(1, 4)):
            t = (rng.randint(0, 2), rng.randint(0, 2))
            p = p + Poly.monomial(2, t, rng.randint(-3, 3))
        return p if not p.is_zero() else Poly.constant(2, 1)

    for _ in range(10):
        polys = [rand_poly() for _ in range(rng.randint(2, 4))]
        for s in syzygies(polys, order):
            acc = Poly.zero(2)
            for k in range(1, len(polys) + 1):
                acc = acc + s.component(k) * polys[k - 1]
            assert acc.is_zero()


def test_syzygies_of_repeated_generator(order):
    syz = syzygies([pol("x + 1"), pol("x + 1")], order)
    assert groebner_basis(syz, order) == groebner_basis(
        [vec("e1 - e2")], order
    )


def test_syzygies_reject_zero(order):
    with pytest.raises(PreconditionError, match="zero polynomial"):
        syzygies([pol("x"), pol("0")], order)


# ---------------------------------------------------------------------------
# ideal intersections


def intersection_elements(hgens, fgens, order):
    out = []
    for q in ideal_intersection(hgens, fgens, order):
        acc = Poly.zero(2)
        for qv, fv in zip(q, fgens):
            acc = acc + qv * fv
        out.append(acc)
    return out


def test_ideal_intersection_principal(order):
    elems = intersection_elements([pol("x")], [pol("y")], order)
    assert groebner_basis(rank1(elems), order) == groebner_basis(
        rank1([pol("x*y")]), order
    )


def test_ideal_intersection_vs_sympy(order, subideal_data):
    hgens, fgens = subideal_data
    elems = intersection_elements(hgens, fgens, order)
    # independent elimination computation: <t*H, (1-t)*F> ∩ Q[x,y]
    t = sympy.symbols("t")
    mixed = [t * to_sympy(h) for h in hgens] + [
        (1 - t) * to_sympy(f) for f in fgens
    ]
    ref = sympy.groebner(mixed, t, SX, SY, order="lex")
    ref_elems = [from_sympy(e) for e in ref.exprs if not e.has(t)]
    assert ref_elems, "elimination must produce intersection generators"
    mine = groebner_basis(rank1(elems), order)
    theirs = groebner_basis(rank1(ref_elems), order)
    assert mine == theirs
    # every intersection element lies in both ideals
    hgb = groebner_basis(rank1(hgens), order)
    fgb = groebner_basis(rank1(fgens), order)
    for e in elems:
        assert gb_normal_form(hgb, Vector.from_polys([e]), order).is_zero()
        assert gb_normal_form(fgb, Vector.from_polys([e]), order).is_zero()
