"""Multiplication matrices, neighbors, SV-vectors, Buchberger, liftings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from modborder import (
    NeighborPair,
    Poly,
    PreconditionError,
    TermOrder,
    Vector,
    border_form,
    buchberger_check,
    commuting_check,
    is_border_basis,
    lift_neighbor_syzygy,
    module_action,
    mult_matrices,
    neighbor_syzygy,
    neighbors,
    normal_remainder,
    reconstruct_prebasis,
    sv_vector,
)
from modborder.characterize import _mat_mul
from modborder.ring import term_lcm, term_quot

from conftest import pol, random_prebases, vec

X_GOLDEN = [
    [0, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 1],
    [-1, 1, 0, 0, 0, 0],
]
Y_GOLDEN = [
    [0, 0, 0, 0, 0, 1],
    [0, 0, 1, 0, 0, 1],
    [0, 0, 0, 1, -3, 1],
    [0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [1, 0, 0, 1, 0, 1],
]
XY_GOLDEN = [
    [0, 0, 0, 1, -3, 1],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 0],
]
YX_GOLDEN = [
    [-1, 1, 0, 0, 0, 0],
    [-1, 1, 0, 1, 0, 0],
    [-1, 1, 0, 0, 1, -3],
    [0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [-1, 1, 1, 0, 1, 0],
]


# ---------------------------------------------------------------------------
# multiplication matrices


def test_mult_matrices_golden(prebasis7):
    mm = mult_matrices(prebasis7)
    assert len(mm) == 2
    assert mm[0] == X_GOLDEN
    assert mm[1] == Y_GOLDEN
    assert all(type(x) is Fraction for m in mm for row in m for x in row)


def test_commuting_check_golden(prebasis7):
    mm = mult_matrices(prebasis7)
    ok, pair = commuting_check(mm)
    assert not ok
    assert pair == (0, 1)
    assert _mat_mul(mm[0], mm[1]) == XY_GOLDEN
    assert _mat_mul(mm[1], mm[0]) == YX_GOLDEN


def _fraction_mul(a, b):
    """The product of two square Fraction matrices, entry by entry."""
    n = range(len(b))
    return [
        [sum((row[k] * b[k][j] for k in n), Fraction(0)) for j in n]
        for row in a
    ]


@settings(max_examples=60, deadline=None)
@given(random_prebases())
def test_commuting_check_matches_fraction_products(case):
    # the check compares integer products of the scaled matrices; the
    # verdict and the first failing pair are those of the Fraction products
    g, is_basis = case
    mm = mult_matrices(g)
    want = (True, None)
    pairs = [(s, u) for s in range(len(mm)) for u in range(s + 1, len(mm))]
    for s, u in pairs:
        if _fraction_mul(mm[s], mm[u]) != _fraction_mul(mm[u], mm[s]):
            want = (False, (s, u))
            break
    assert commuting_check(mm) == want
    if is_basis:
        assert want == (True, None)
    assert all(type(x) is Fraction for m in mm for row in m for x in row)


def test_column_encodes_normal_remainder(basis4):
    # column l of X_s holds the M-coordinates of NR(x_s * t_l e_{alpha_l})
    mm = mult_matrices(basis4)
    om = basis4.om
    for s, var in enumerate([pol("x"), pol("y")]):
        for l, (t, k) in enumerate(om.module_terms):
            prod = Vector.monomial(2, 2, t, k, 1).mul_poly(var)
            nr = normal_remainder(basis4, prod)
            col = [row[l] for row in mm[s]]
            assert col == [nr.coeff(mt) for mt in om.module_terms]


def test_commuting_basis(basis4):
    ok, pair = commuting_check(mult_matrices(basis4))
    assert ok and pair is None


def test_module_action(basis4):
    mm = mult_matrices(basis4)
    om = basis4.om
    p = pol("x^2*y - 3*x + 1/2")
    coords = [1, -2]  # v = e1 - 2 e2
    v = vec("e1 - 2*e2")
    got = module_action(mm, basis4, p, coords)
    nr = normal_remainder(basis4, v.mul_poly(p))
    assert got == [nr.coeff(mt) for mt in om.module_terms]


def test_module_action_needs_commuting(prebasis7):
    mm = mult_matrices(prebasis7)
    with pytest.raises(PreconditionError, match="do not commute"):
        module_action(mm, prebasis7, pol("x"), [1, 0, 0, 0, 0, 0])


# ---------------------------------------------------------------------------
# neighbors


def test_neighbors_golden(prebasis7):
    # border enumeration: x^2 e1, xy e1, y^2 e1, x^3 e2, x^2y e2, xy e2, y e2
    got = neighbors(prebasis7.om)
    assert got == [
        NeighborPair(0, 1, "across_street", 1, 0),
        NeighborPair(1, 2, "across_street", 1, 0),
        NeighborPair(3, 4, "across_street", 1, 0),
        NeighborPair(5, 4, "next_door", 0),
        NeighborPair(6, 5, "next_door", 0),
    ]


def test_neighbors_stay_within_component(prebasis7):
    bt = prebasis7.om.border_terms
    for p in neighbors(prebasis7.om):
        assert bt[p.i][1] == bt[p.j][1]


def test_neighbor_syzygy_kills_border_terms(prebasis7):
    om = prebasis7.om
    for p in neighbors(om):
        sy = neighbor_syzygy(om, p)
        acc = Vector.zero(om.nvars, om.rank)
        for q, (b, k) in zip(sy, om.border_terms):
            acc = acc + Vector.monomial(om.nvars, om.rank, b, k, 1).mul_poly(q)
        assert acc.is_zero()


# ---------------------------------------------------------------------------
# SV-vectors and the Buchberger criterion


def test_sv_vector_golden(prebasis7):
    # SV(G1, G2) = y G1 - x G2 for the across pair (x^2 e1, xy e1)
    sv = sv_vector(prebasis7, 0, 1)
    assert sv == vec("-y^2*e1 + x*e2 + y*e2")
    assert normal_remainder(prebasis7, sv) == vec("x*e1 + y*e1 + e1 + e2")


@settings(max_examples=60, deadline=None)
@given(random_prebases())
def test_sv_vector_matches_vector_arithmetic(case):
    # the one-dict construction against (lcm/b_i) G_i - (lcm/b_j) G_j in
    # Vector arithmetic, for every pair, with equal coefficient order
    g, _ = case
    terms = g.om.border_terms
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            bi, bj = terms[i][0], terms[j][0]
            lcm = term_lcm(bi, bj)
            gi = g.vector(i).mul_term(term_quot(lcm, bi))
            want = gi - g.vector(j).mul_term(term_quot(lcm, bj))
            got = sv_vector(g, i, j)
            assert got == want
            assert list(got.coeffs) == list(want.coeffs)


def test_buchberger_check_golden(prebasis7):
    for mode in ("neighbors_only", "all_pairs"):
        ok, witness = buchberger_check(prebasis7, mode)
        assert not ok
        i, j, nr = witness
        assert (i, j) == (0, 1)
        assert nr == vec("x*e1 + y*e1 + e1 + e2")
    ok, _ = is_border_basis(prebasis7)
    assert not ok


def test_buchberger_check_positive(basis4):
    assert buchberger_check(basis4, "neighbors_only") == (True, None)
    assert buchberger_check(basis4, "all_pairs") == (True, None)
    assert is_border_basis(basis4) == (True, None)


def test_buchberger_check_rejects_unknown_mode(basis4):
    with pytest.raises(ValueError):
        buchberger_check(basis4, "some_pairs")


# ---------------------------------------------------------------------------
# border forms


def test_border_form(prebasis7):
    om = prebasis7.om
    v = vec("x^3*e1 + x*y*e1 + x^3*y*e2")
    # x^3 e1 and x^3 y e2 have M-index 2, x*y e1 only 1
    assert border_form(om, v) == vec("x^3*e1 + x^3*y*e2")
    inside = vec("x*e1 - 5*e2")
    assert border_form(om, inside) == inside
    with pytest.raises(PreconditionError):
        border_form(om, Vector.zero(2, 2))


# ---------------------------------------------------------------------------
# liftings


def test_lift_neighbor_syzygy_is_syzygy(basis4):
    om = basis4.om
    for p in neighbors(om):
        lift = lift_neighbor_syzygy(basis4, p)
        acc = Vector.zero(om.nvars, om.rank)
        for q, g in zip(lift, basis4.vectors()):
            acc = acc + g.mul_poly(q)
        assert acc.is_zero()


def test_lift_of_vanishing_sv_is_the_syzygy(order):
    from modborder.textio import parse_vector

    g = reconstruct_prebasis(
        [parse_vector("x*e1", ["x", "y"], 1), parse_vector("y*e1", ["x", "y"], 1)],
        order,
    )
    pairs = neighbors(g.om)
    assert pairs == [NeighborPair(0, 1, "across_street", 1, 0)]
    lift = lift_neighbor_syzygy(g, pairs[0])
    assert lift == [Poly.variable(2, 1), -Poly.variable(2, 0)]


def test_lift_fails_without_basis(prebasis7):
    pair = neighbors(prebasis7.om)[0]
    with pytest.raises(PreconditionError, match="no lifting"):
        lift_neighbor_syzygy(prebasis7, pair)
