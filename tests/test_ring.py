"""Terms, term orders, polynomials, and vectors."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modborder import Poly, TermOrder, Vector
from modborder.ring import (
    ORDER_NAMES,
    pure_power_bounds,
    term_deg,
    term_divides,
    term_lcm,
    term_mul,
    term_one,
    term_pred,
    term_quot,
    terms_of_degree,
    terms_up_to_degree,
    unit_terms,
)

from conftest import pol, vec


# ---------------------------------------------------------------------------
# terms


def test_term_helpers():
    assert term_one(3) == (0, 0, 0)
    assert term_deg((2, 0, 1)) == 3
    assert term_mul((1, 2), (3, 0)) == (4, 2)
    assert term_divides((1, 0), (2, 1))
    assert not term_divides((0, 2), (1, 1))
    assert term_quot((3, 2), (1, 2)) == (2, 0)
    assert term_lcm((2, 1), (1, 3)) == (2, 3)
    assert unit_terms(3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert unit_terms(0) == []
    assert term_pred((2, 1, 3), 0) == (1, 1, 3)
    assert term_pred((2, 1, 3), 2) == (2, 1, 2)


def test_pure_power_bounds():
    # x^3, x^2 and y^4 are pure powers, x*z and the constant are not
    terms = [(3, 0, 0), (1, 0, 1), (0, 4, 0), (2, 0, 0), (0, 0, 0)]
    assert pure_power_bounds(terms, 3) == [2, 4, None]
    assert pure_power_bounds([], 2) == [None, None]


@pytest.mark.parametrize("n,d", [(1, 5), (2, 4), (3, 3)])
def test_terms_of_degree_count(n, d):
    terms = terms_of_degree(n, d)
    assert len(terms) == math.comb(d + n - 1, n - 1)
    assert all(term_deg(t) == d for t in terms)
    assert len(set(terms)) == len(terms)


def test_terms_up_to_degree():
    terms = terms_up_to_degree(2, 2)
    assert set(terms) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


# ---------------------------------------------------------------------------
# term orders


def test_unknown_order_rejected():
    with pytest.raises(ValueError):
        TermOrder("grevlex")


def test_degree_two_chain_degrevlex():
    o = TermOrder("degrevlex")
    chain = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    for a, b in zip(chain, chain[1:]):
        assert o.greater(a, b)


def test_degrevlex_vs_deglex_discriminator():
    # the classical n = 3 case: degrevlex has y^2 > xz, deglex has xz > y^2
    y2, xz = (0, 2, 0), (1, 0, 1)
    assert TermOrder("degrevlex").greater(y2, xz)
    assert TermOrder("deglex").greater(xz, y2)


def test_lex_ignores_degree():
    o = TermOrder("lex")
    assert o.greater((1, 0), (0, 5))


@pytest.mark.parametrize("name", ORDER_NAMES)
def test_module_extension_breaks_ties_by_component(name):
    o = TermOrder(name)
    t = (1, 1)
    assert o.mod_greater((t, 1), (t, 2))
    # the term part dominates the component
    assert o.mod_greater(((2, 0), 2), ((1, 0), 1))


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.integers(0, 4)] * 3),
    st.tuples(*[st.integers(0, 4)] * 3),
    st.tuples(*[st.integers(0, 4)] * 3),
    st.sampled_from(ORDER_NAMES),
)
def test_order_is_total_and_multiplicative(a, b, c, name):
    o = TermOrder(name)
    # totality and antisymmetry via the key
    assert (o.key(a) == o.key(b)) == (a == b)
    # compatibility with multiplication
    if o.greater(a, b):
        assert o.greater(term_mul(a, c), term_mul(b, c))
    # a term order has 1 as its least element
    if a != term_one(3):
        assert o.greater(a, term_one(3))


# ---------------------------------------------------------------------------
# polynomials


def test_poly_arithmetic():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    one = Poly.constant(2, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + one) * (x - one) == pol("x^2 - 1")
    assert pol("x^2 - 1") - pol("x^2") == pol("-1")
    assert (x - x).is_zero()
    assert pol("0").is_zero()


def test_poly_degree_and_leading_term():
    o = TermOrder("degrevlex")
    p = pol("2*x*y + y^3 - 5")
    assert p.degree() == 3
    t, c = p.leading_term(o)
    assert t == (0, 3)
    assert c == 1
    assert p.coeff((1, 1)) == 2
    assert p.coeff((5, 5)) == 0


def test_poly_scale_and_mul_term():
    p = pol("x + 2")
    assert p.scale(Fraction(1, 2)) == pol("1/2*x + 1")
    assert p.mul_term((0, 1)) == pol("x*y + 2*y")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
        ),
        max_size=5,
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
        ),
        max_size=5,
    ),
)
def test_poly_ring_axioms(ts1, ts2):
    def build(ts):
        p = Poly.zero(2)
        for t, c in ts:
            p = p + Poly.monomial(2, t, c)
        return p

    p, q = build(ts1), build(ts2)
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p
    assert p * (q + q) == p * q + p * q


# ---------------------------------------------------------------------------
# vectors


def test_vector_roundtrip_components():
    v = vec("x*e1 - 3*e2")
    assert v.component(1) == pol("x")
    assert v.component(2) == pol("-3")
    assert Vector.from_polys([pol("x"), pol("-3")]) == v


def test_vector_support_and_degree():
    v = vec("x^2*e1 + y*e2 - e2")
    assert set(v.support()) == {((2, 0), 1), ((0, 1), 2), ((0, 0), 2)}
    assert v.degree() == 2
    assert v.coeff(((0, 0), 2)) == -1


def test_vector_leading_modterm():
    o = TermOrder("degrevlex")
    v = vec("x*e2 + 2*x*e1")
    # sigma-Pos breaks term ties toward the smaller component
    assert v.leading_modterm(o) == (((1, 0), 1), 2)


def test_vector_arithmetic():
    v, w = vec("x*e1 + e2"), vec("x*e1 - e2")
    assert v - w == vec("2*e2")
    assert v + w == vec("2*x*e1")
    assert v.scale(Fraction(3)) == vec("3*x*e1 + 3*e2")
    assert v.mul_term((0, 1)) == vec("x*y*e1 + y*e2")
    assert pol("y") * v == vec("x*y*e1 + y*e2")
    assert v.mul_poly(pol("x - 1")) == vec("x^2*e1 - x*e1 + x*e2 - e2")


def test_vector_zero_and_unit():
    z = Vector.zero(2, 2)
    assert z.is_zero()
    assert Vector.unit(2, 2, 1) == vec("e1")
    assert Vector.monomial(2, 2, (1, 1), 2, Fraction(-1, 2)) == vec(
        "-1/2*x*y*e2"
    )
