"""Exact rational matrices and sparse echelon spans."""

import pytest

from modborder import PreconditionError, TermOrder, Vector
from modborder.linalg import (
    RatMatrix,
    degree_universe,
    intersect_with_coordinate_space,
    span_basis,
)
from modborder.textio import parse_vector

from conftest import VARS, vec


@pytest.fixture(scope="module")
def order():
    return TermOrder("degrevlex")


# ---------------------------------------------------------------------------
# matrices


def test_identity_and_mul():
    a = RatMatrix.from_rows([[1, 2], [3, 4]])
    i2 = RatMatrix.identity(2)
    assert a.mul(i2) == a
    assert i2.mul(a) == a
    b = RatMatrix.from_rows([[0, 1], [1, 0]])
    assert a.mul(b) == RatMatrix.from_rows([[2, 1], [4, 3]])
    assert a.mul(b) != b.mul(a)


# ---------------------------------------------------------------------------
# spans


def test_degree_universe_descending(order):
    u = degree_universe(2, 2, 1, order)
    assert u == [
        ((1, 0), 1), ((1, 0), 2), ((0, 1), 1), ((0, 1), 2),
        ((0, 0), 1), ((0, 0), 2),
    ]
    u2 = degree_universe(2, 1, 2, order)
    assert [t for t, _ in u2] == [
        (2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0),
    ]


def test_span_basis(order):
    u = degree_universe(2, 2, 1, order)
    vs = [vec("x*e1 + e2"), vec("x*e1 - e2"), vec("2*x*e1")]
    basis = span_basis(vs, u)
    assert basis == [vec("x*e1"), vec("e2")]
    assert span_basis([], u) == []


def test_span_basis_golden(order, mbba_gens):
    # the five running-example generators over the degree-1 universe
    # (x e1, x e2, y e1, y e2, e1, e2): rank 4, pivots x e1, x e2, y e1, y e2
    u = degree_universe(2, 2, 1, order)
    assert span_basis(mbba_gens, u) == [
        vec("x*e1 + 4/3*e1 + 2/3*e2"),
        vec("x*e2 - 2/3*e1 - 1/3*e2"),
        vec("y*e1 - e1"),
        vec("y*e2 - e2"),
    ]


def test_span_basis_is_idempotent(order):
    u = degree_universe(2, 1, 1, order)
    vs = [
        parse_vector(s, VARS, 1)
        for s in ("2*x*e1 + 4*y*e1 + 6*e1", "x*e1 + 2*y*e1 + 4*e1", "e1")
    ]
    basis = span_basis(vs, u)
    assert basis == [parse_vector("x*e1 + 2*y*e1", VARS, 1), Vector.unit(2, 1, 1)]
    assert span_basis(basis, u) == basis


def test_span_basis_of_zero_vectors(order):
    u = degree_universe(2, 2, 1, order)
    assert span_basis([Vector.zero(2, 2), Vector.zero(2, 2)], u) == []


def test_span_basis_rejects_outside_terms(order):
    u = degree_universe(2, 2, 1, order)
    with pytest.raises(PreconditionError, match="outside the coordinate"):
        span_basis([vec("x^2*e1")], u)


def test_intersect_with_coordinate_space(order):
    # span{x e1 + e1, x e1 - e2, e1 + e2} meets <e1, e2> in <e1 + e2>
    vs = [vec("x*e1 + e1"), vec("x*e1 - e2")]
    keep = {((0, 0), 1), ((0, 0), 2)}
    got = intersect_with_coordinate_space(vs, keep, order)
    assert got == [vec("e1 + e2")]
    # vectors already inside the space are returned in reduced form
    got = intersect_with_coordinate_space(
        [vec("2*e1"), vec("e1 + e2")], keep, order
    )
    assert got == [vec("e1"), vec("e2")]
    assert intersect_with_coordinate_space([Vector.zero(2, 2)], keep, order) == []


def test_intersection_is_contained_in_both(order):
    vs = [vec("x*e1 + y*e2 + e1"), vec("y*e2 - e2"), vec("x*e1 + e2")]
    keep = {((0, 0), 1), ((0, 0), 2), ((0, 1), 2)}
    got = intersect_with_coordinate_space(vs, keep, order)
    for w in got:
        assert set(w.support()) <= keep
    # e1 - e2 = (x e1 + y e2 + e1) - (y e2 - e2) - (x e1 + e2) - e2 ... the
    # intersection here is spanned by e1 + y e2 - e2's reduction:
    u = degree_universe(2, 2, 1, order)
    full = span_basis(vs + got, u)
    assert full == span_basis(vs, u)
