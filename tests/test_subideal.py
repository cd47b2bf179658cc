"""Subideal border bases via the isomorphism P^r/Syz(F) ≅ <F>."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modborder import (
    ORDER_NAMES,
    FOrderIdeal,
    Poly,
    PreconditionError,
    SubidealContext,
    TermOrder,
    Vector,
    check_subideal_basis,
    groebner_basis,
    module_border_basis,
    subideal_border_basis,
    syzygies,
)
from modborder.groebner import ideal_intersection
from modborder.ring import term_divides, terms_up_to_degree
from modborder import groebner, subideal
from modborder.subideal import _kernel_generators, _zero_dimensional

from conftest import pol, vec

ONE = (0, 0)


@pytest.fixture(scope="module")
def ctx(order, subideal_data):
    _, fgens = subideal_data
    return SubidealContext(fgens, order)


@pytest.fixture(scope="module")
def computed(order, subideal_data):
    hgens, fgens = subideal_data
    return subideal_border_basis(hgens, fgens, order)


# ---------------------------------------------------------------------------
# the context


def test_context_syzygies(order, ctx):
    # Syz(x - y, x + y + 1) = <(x + y + 1, -x + y)>, checked as module
    # equality through canonical reduced Groebner bases
    golden = [vec("(x + y + 1)*e1 + (-x + y)*e2")]
    assert groebner_basis(ctx.syz, order) == groebner_basis(golden, order)


def test_expand_in_P(ctx):
    got = ctx.expand_in_P(vec("x*e1 + 4/3*e1 + 2/3*e2"))
    assert got == pol("x^2 - x*y + 2*x - 2/3*y + 2/3")
    assert ctx.expand_in_P(vec("e1 + e2")) == pol("2*x + 1")
    with pytest.raises(PreconditionError, match="rank"):
        ctx.expand_in_P(Vector.unit(2, 3, 1))


def test_expansion_kills_syzygies(ctx):
    for s in ctx.syz:
        assert ctx.expand_in_P(s).is_zero()
    v = vec("x*y*e1 - e2")
    assert ctx.same_element(v, v + ctx.syz[0].mul_term((1, 1)))
    assert not ctx.same_element(v, vec("x*y*e1"))


def test_context_input_validation(order):
    with pytest.raises(PreconditionError, match="no generators for the subideal"):
        SubidealContext([], order)
    with pytest.raises(PreconditionError, match="zero generator"):
        SubidealContext([pol("x"), pol("0")], order)


# ---------------------------------------------------------------------------
# the computation


def test_golden_f_order_ideal(computed):
    oF, gvecs = computed
    assert oF.formal_terms() == [(ONE, 1), (ONE, 2)]
    assert oF.expanded() == [pol("x - y"), pol("x + y + 1")]


def test_golden_basis_combinations(computed):
    _, gvecs = computed
    assert gvecs == [
        vec("x*e1 + 4/3*e1 + 2/3*e2"),
        vec("y*e1 - e1"),
        vec("x*e2 - 2/3*e1 - 1/3*e2"),
        vec("y*e2 - e2"),
    ]


def test_golden_expansions(computed):
    oF, gvecs = computed
    expansions = [oF.ctx.expand_in_P(v) for v in gvecs]
    assert expansions == [
        pol("x^2 - x*y + 2*x - 2/3*y + 2/3"),
        pol("x*y - y^2 - x + y"),
        pol("x^2 + x*y + 1/3*y - 1/3"),
        pol("x*y + y^2 - x - 1"),
    ]


def test_expansions_lie_in_the_ideal(order, computed, subideal_data):
    hgens, _ = subideal_data
    oF, gvecs = computed
    gb = groebner_basis([Vector.from_polys([h]) for h in hgens], order)
    from modborder import gb_normal_form

    for v in gvecs:
        p = oF.ctx.expand_in_P(v)
        assert gb_normal_form(gb, Vector.from_polys([p]), order).is_zero()


def test_check_subideal_basis_positive(order, computed, subideal_data):
    hgens, _ = subideal_data
    oF, gvecs = computed
    assert check_subideal_basis(oF.ctx, oF, gvecs, hgens) == (True, None)


# ---------------------------------------------------------------------------
# diagnostics and preconditions


def test_check_membership_failure(computed):
    # against the smaller ideal <y - 1> the first expansion does not vanish
    oF, gvecs = computed
    ok, diag = check_subideal_basis(oF.ctx, oF, gvecs, [pol("y - 1")])
    assert not ok
    kind, j, nf = diag
    assert kind == "membership"
    assert j == 0
    assert nf == Vector.from_polys([pol("x^2 + x")])


def test_check_buchberger_failure(computed):
    oF, gvecs = computed
    tampered = [vec("x*e1 - e2"), vec("y*e1"), gvecs[2], gvecs[3]]
    ok, diag = check_subideal_basis(oF.ctx, oF, tampered, [pol("y - 1")])
    assert not ok
    assert diag[0] == "buchberger"


def test_not_zero_dimensional_rejected(order, subideal_data):
    _, fgens = subideal_data
    with pytest.raises(PreconditionError, match="not zero-dimensional"):
        subideal_border_basis([pol("x")], fgens, order)
    with pytest.raises(PreconditionError, match="not zero-dimensional"):
        subideal_border_basis([pol("x*y - 1")], fgens, order)


def test_ideal_input_validation(order, subideal_data):
    _, fgens = subideal_data
    with pytest.raises(PreconditionError, match="no generators for the ideal"):
        subideal_border_basis([], fgens, order)
    with pytest.raises(PreconditionError, match="zero generator"):
        subideal_border_basis([pol("0")], fgens, order)


def test_unit_ideal(order, subideal_data):
    # I = <1> meets J in J itself: the F-order ideal collapses to the empty
    # set and the basis is the formal unit vectors
    _, fgens = subideal_data
    oF, gvecs = subideal_border_basis([pol("1")], fgens, order)
    assert oF.formal_terms() == []
    assert gvecs == [vec("e1"), vec("e2")]


def test_single_generator_subideal(order):
    # J = <x>: Syz(F) = 0 and the subideal basis is an ordinary border basis
    # of I:J-representations; I = <x^2, x*y> inside J
    oF, gvecs = subideal_border_basis(
        [pol("x^2"), pol("x*y"), pol("y^3")],
        [pol("x")],
        order,
    )
    exp = [oF.ctx.expand_in_P(v) for v in gvecs]
    gb = groebner_basis(
        [Vector.from_polys([p]) for p in exp], order
    )
    # the expansions generate I ∩ J = <x^2, x*y>
    assert gb == groebner_basis(
        [Vector.from_polys([pol("x^2")]), Vector.from_polys([pol("x*y")])],
        order,
    )


# ---------------------------------------------------------------------------
# the linear-algebra route against the Groebner intersection route


def _reference_subideal(hgens, fgens, order, max_degree=32):
    """The subideal basis through a Groebner computation on h ∪ f: the main
    algorithm on the lifts of generators of I ∩ J and on Syz(F)."""
    zero_dim, _ = _zero_dimensional(hgens, order)
    assert zero_dim
    ctx = SubidealContext(fgens, order)
    bvecs = [
        Vector.from_polys(q) for q in ideal_intersection(hgens, fgens, order)
    ]
    bvecs = [v for v in bvecs if not v.is_zero()]
    om, g = module_border_basis(bvecs + ctx.syz, order, max_degree=max_degree)
    return FOrderIdeal(ctx, om), g.vectors()


def _affine(rng, point=None):
    """c1*x + c2*y + c0 with small nonzero c1, c2, vanishing at `point`
    when one is given."""
    c1, c2 = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2))
    if point is None:
        c0 = rng.randint(-3, 3)
    else:
        c0 = -c1 * point[0] - c2 * point[1]
    return Poly(2, {(1, 0): c1, (0, 1): c2, ONE: c0})


@st.composite
def subideal_pairs(draw):
    """(order, I, F) with I of codimension a*b in Q[x, y] and one to three
    affine linear f's, squared, or with an f in I or f = 1 appended.

    I is <x^a + lower, y^b + lower> with random lower terms, or the
    vanishing ideal of an a x b grid of integer points; then each f passes
    through a point of the grid, so the f's are zero divisors modulo I and
    the kernel holds more than the syzygies of F."""
    order = TermOrder(draw(st.sampled_from(ORDER_NAMES)))
    top = 2 if order.name == "lex" else 3
    a, b = draw(st.integers(1, top)), draw(st.integers(1, top))
    rng = random.Random(draw(st.integers(0, 2**16)))
    nf = draw(st.integers(1, 3))
    if draw(st.booleans()):
        xs, ys = rng.sample(range(-3, 4), a), rng.sample(range(-3, 4), b)
        hgens = [Poly.constant(2, 1), Poly.constant(2, 1)]
        for p in xs:
            hgens[0] = hgens[0] * Poly(2, {(1, 0): 1, ONE: -p})
        for q in ys:
            hgens[1] = hgens[1] * Poly(2, {(0, 1): 1, ONE: -q})
        points = [(rng.choice(xs), rng.choice(ys)) for _ in range(nf)]
        fgens = [_affine(rng, point) for point in points]
    else:
        hgens = []
        for lead in ((a, 0), (0, b)):
            coeffs = {lead: Fraction(1)}
            for t in terms_up_to_degree(2, sum(lead) - 1):
                coeffs[t] = Fraction(rng.randint(-3, 3))
            hgens.append(Poly(2, coeffs))
        fgens = [_affine(rng) for _ in range(nf)]
    variant = draw(st.sampled_from(["affine", "squared", "in_ideal", "unit"]))
    if variant == "squared":
        fgens = [f * f for f in fgens]
    elif variant == "in_ideal":
        fgens.append(hgens[0] * fgens[0])
    elif variant == "unit":
        fgens.append(Poly.constant(2, 1))
    return order, hgens, fgens


def _pivots_minimal(rows, order):
    pivots = [max(row, key=order.mod_key) for row in rows]
    return not any(
        p != q and p[1] == q[1] and term_divides(q[0], p[0])
        for p in pivots
        for q in pivots
    )


@settings(max_examples=30, deadline=None)
@given(subideal_pairs())
def test_matches_the_intersection_route(case):
    order, hgens, fgens = case
    oF, gvecs = subideal_border_basis(hgens, fgens, order)
    ref, rvecs = _reference_subideal(hgens, fgens, order)
    assert oF.om == ref.om
    assert gvecs == rvecs
    assert [oF.ctx.expand_in_P(v) for v in gvecs] == [
        ref.ctx.expand_in_P(v) for v in rvecs
    ]
    # the kernel step runs over the degrevlex basis whatever the order
    grevlex = TermOrder("degrevlex")
    _, gb = _zero_dimensional(hgens, grevlex)
    rows = _kernel_generators(gb, fgens, grevlex, 32)
    assert _pivots_minimal(rows, grevlex)


def test_minimal_pivot_filter():
    # x^6 lies in I, so every t*e1 with t in the normal set is in the
    # kernel; only e1 itself is a minimal pivot, and U = P
    order = TermOrder("degrevlex")
    hgens, fgens = [pol("x^5"), pol("y^5")], [pol("x^6")]
    _, gb = _zero_dimensional(hgens, order)
    assert _kernel_generators(gb, fgens, order, 32) == [{(ONE, 1): 1}]
    oF, gvecs = subideal_border_basis(hgens, fgens, order)
    assert oF.formal_terms() == []
    assert gvecs == [Vector.unit(2, 1, 1)]


# ---------------------------------------------------------------------------
# the degree cap


def _x(n):
    return Poly(1, {(n,): 1})


def test_normal_set_past_the_cap():
    # I = <x^40> in J = <x>: U = <x^39*e1> has no generator within the
    # default cap, and one within a cap of 41
    order = TermOrder("degrevlex")
    with pytest.raises(PreconditionError, match=r"cap 32 reached"):
        subideal_border_basis([_x(40)], [_x(1)], order)
    oF, gvecs = subideal_border_basis([_x(40)], [_x(1)], order, max_degree=41)
    assert oF.om.mu == 39
    assert gvecs == [Vector(1, 1, {((39,), 1): 1})]


@pytest.mark.parametrize(
    "h, f, basis",
    [
        # the Groebner basis element x^33 is one degree past the cap, and
        # redundant next to the kernel vector x^32*e1
        (33, 1, (32,)),
        # the normal set reaches degree 39, but the kernel vector x*e1 of
        # tag degree 1 generates U
        (40, 39, (1,)),
        # f lies in I, and U = P
        (40, 50, (0,)),
    ],
)
def test_kernel_within_the_cap(h, f, basis):
    order = TermOrder("degrevlex")
    oF, gvecs = subideal_border_basis([_x(h)], [_x(f)], order)
    ref, rvecs = _reference_subideal([_x(h)], [_x(f)], order)
    assert (oF.om, gvecs) == (ref.om, rvecs)
    assert gvecs == [Vector(1, 1, {(basis, 1): 1})]


def test_generator_past_the_cap_not_redundant():
    # I = <x^33> in J = <1>: U = I, and its only generator is past the cap
    order = TermOrder("degrevlex")
    with pytest.raises(PreconditionError, match=r"cap 32 reached"):
        subideal_border_basis([_x(33)], [_x(0)], order)
    with pytest.raises(PreconditionError, match=r"cap 32 reached"):
        _reference_subideal([_x(33)], [_x(0)], order)


def test_redundant_generator_past_the_cap():
    # x^40 is redundant in I = <x^2, y^2, x^40>; the Groebner basis of I
    # stands in for the generators, so the cap is not reached
    order = TermOrder("degrevlex")
    hgens, fgens = [pol("x^2"), pol("y^2"), pol("x^40")], [pol("x")]
    oF, gvecs = subideal_border_basis(hgens, fgens, order)
    ref, rvecs = _reference_subideal(hgens, fgens, order)
    assert (oF.om, gvecs) == (ref.om, rvecs)
    assert oF.formal_terms() == [((0, 1), 1), (ONE, 1)]


def test_large_normal_set_needs_no_intersection(monkeypatch):
    # mu_I = 400 with terms up to degree 38, and U has no border basis
    # within the cap; the cap error comes without a Groebner computation
    # on h and f together
    order = TermOrder("degrevlex")
    hgens = [pol("x^20 - 1"), pol("y^20 - 2")]
    fgens = [pol("x + y"), pol("x - 2*y + 1")]
    inputs = []

    def recording(gens, order):
        gens = list(gens)
        inputs.append([v.component(1) for v in gens])
        return groebner_basis(gens, order)

    monkeypatch.setattr(groebner, "groebner_basis", recording)
    monkeypatch.setattr(subideal, "groebner_basis", recording)
    with pytest.raises(PreconditionError, match=r"cap 32 reached"):
        subideal_border_basis(hgens, fgens, order)
    assert inputs == [hgens, fgens]
