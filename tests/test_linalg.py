"""The sparse echelon form behind the main algorithm, and the dense matrix
product of the commuting check."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modborder import TermOrder, Vector
from modborder.characterize import _mat_mul
from modborder.linalg import (
    _degree_key,
    _integral,
    _monic,
    _reduce_into,
)
from modborder.ring import terms_up_to_degree
from modborder.textio import parse_vector

from conftest import VARS, vec


@pytest.fixture(scope="module")
def order():
    return TermOrder("degrevlex")


def echelon(rows, key):
    """The reduced echelon basis over Q of the rational coefficient dicts
    `rows`, as a dict pivot -> monic row, largest pivot first."""
    basis = {}
    _reduce_into(basis, map(_integral, rows), key)
    return {p: _monic(basis[p], p) for p in sorted(basis, key=key, reverse=True)}


def span_basis(vectors, order, rank=2):
    """The reduced echelon basis of the span of `vectors` in Q[x, y]^rank,
    with the terms ordered degree first, largest pivot first."""
    rows = echelon((v.coeffs for v in vectors), _degree_key(order))
    return [Vector(2, rank, r) for r in rows.values()]


# ---------------------------------------------------------------------------
# matrices


def test_identity_and_mul():
    a = [[1, 2], [3, 4]]
    i2 = [[1, 0], [0, 1]]
    assert _mat_mul(a, i2) == a
    assert _mat_mul(i2, a) == a
    b = [[0, 1], [1, 0]]
    assert _mat_mul(a, b) == [[2, 1], [4, 3]]
    assert _mat_mul(a, b) != _mat_mul(b, a)
    # the entries keep the inputs' type: ints stay ints, Fractions Fractions
    assert all(type(x) is int for row in _mat_mul(a, b) for x in row)
    fa = [[Fraction(x, 3) for x in row] for row in a]
    fb = [[Fraction(x) for x in row] for row in b]
    assert _mat_mul(fa, fb) == [
        [Fraction(2, 3), Fraction(1, 3)], [Fraction(4, 3), 1],
    ]
    assert all(type(x) is Fraction for row in _mat_mul(fa, fb) for x in row)
    # mu = 0: the empty product
    assert _mat_mul([], []) == []


# ---------------------------------------------------------------------------
# spans


def test_degree_universe_descending(order):
    # the module terms of degree <= d, sorted descending by the degree key
    key = _degree_key(order)
    u = sorted(
        ((t, k) for k in (1, 2) for t in terms_up_to_degree(2, 1)),
        key=key,
        reverse=True,
    )
    assert u == [
        ((1, 0), 1), ((1, 0), 2), ((0, 1), 1), ((0, 1), 2),
        ((0, 0), 1), ((0, 0), 2),
    ]
    u2 = sorted(
        ((t, 1) for t in terms_up_to_degree(2, 2)), key=key, reverse=True
    )
    assert [t for t, _ in u2] == [
        (2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0),
    ]


def test_span_basis(order):
    vs = [vec("x*e1 + e2"), vec("x*e1 - e2"), vec("2*x*e1")]
    basis = span_basis(vs, order)
    assert basis == [vec("x*e1"), vec("e2")]
    assert span_basis([], order) == []


def test_span_basis_golden(order, mbba_gens):
    # the five running-example generators, of degree <= 1: rank 4, pivots
    # x e1, x e2, y e1, y e2
    assert span_basis(mbba_gens, order) == [
        vec("x*e1 + 4/3*e1 + 2/3*e2"),
        vec("x*e2 - 2/3*e1 - 1/3*e2"),
        vec("y*e1 - e1"),
        vec("y*e2 - e2"),
    ]


def test_span_basis_is_idempotent(order):
    vs = [
        parse_vector(s, VARS, 1)
        for s in ("2*x*e1 + 4*y*e1 + 6*e1", "x*e1 + 2*y*e1 + 4*e1", "e1")
    ]
    basis = span_basis(vs, order, rank=1)
    assert basis == [parse_vector("x*e1 + 2*y*e1", VARS, 1), Vector.unit(2, 1, 1)]
    assert span_basis(basis, order, rank=1) == basis


def test_span_basis_of_zero_vectors(order):
    assert span_basis([Vector.zero(2, 2), Vector.zero(2, 2)], order) == []


def low_degree_rows(vectors, d, order):
    """The rows of the degree-keyed echelon form pivoted at degree <= d."""
    rows = echelon((v.coeffs for v in vectors), _degree_key(order))
    return [Vector(2, 2, r) for p, r in rows.items() if sum(p[0]) <= d]


def test_low_degree_echelon_rows_span_the_intersection(order):
    # span{x e1 + e1, x e1 - e2} meets <e1, e2> in <e1 + e2>
    vs = [vec("x*e1 + e1"), vec("x*e1 - e2")]
    assert low_degree_rows(vs, 0, order) == [vec("e1 + e2")]
    # vectors already inside the space are returned in reduced form
    assert low_degree_rows([vec("2*e1"), vec("e1 + e2")], 0, order) == [
        vec("e1"),
        vec("e2"),
    ]
    assert low_degree_rows([Vector.zero(2, 2)], 0, order) == []


def test_low_degree_echelon_rows_lie_in_both(order):
    vs = [vec("x*e1 + y*e2 + e1"), vec("y*e2 - e2"), vec("x*e1 + e2")]
    # (x e1 + y e2 + e1) - (y e2 - e2) - (x e1 + e2) = e1
    got = low_degree_rows(vs, 0, order)
    assert got == [vec("e1")]
    assert span_basis(vs + got, order) == span_basis(vs, order)


# ---------------------------------------------------------------------------
# incremental insertion

_TERMS = [(t, k) for t in terms_up_to_degree(2, 2) for k in (1, 2)]


@st.composite
def row_batches(draw):
    """Sparse coefficient dicts over the degree-2 terms of Q[x, y]^2, split
    into batches; later rows are often combinations of earlier ones."""
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            row = {mt: s * a.get(mt, 0) + t * b.get(mt, 0) for mt in {*a, *b}}
        else:
            mts = draw(st.lists(st.sampled_from(_TERMS), max_size=5))
            row = {
                mt: Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
                for mt in mts
            }
        rows.append({mt: c for mt, c in row.items() if c})
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), min_size=1, max_size=3)))
    bounds = [0, *cuts, len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=150, deadline=None)
@given(row_batches(), st.sampled_from(["degrevlex", "deglex", "lex"]))
def test_reduce_into_batches_equals_one_pass(batches, name):
    order = TermOrder(name)
    key = _degree_key(order)
    rows = [r for batch in batches for r in batch]
    whole = echelon(rows, key)
    basis = {}
    for batch in batches:
        _reduce_into(basis, map(_integral, batch), key)
    assert {p: _monic(r, p) for p, r in basis.items()} == whole
    for p, r in whole.items():
        assert r[p] == 1 and max(r, key=key) == p
        assert all(q == p or q not in r for q in whole)


@settings(max_examples=150, deadline=None)
@given(row_batches(), st.sampled_from(["degrevlex", "deglex", "lex"]))
def test_reduce_into_keeps_primitive_integer_rows(batches, name):
    key = _degree_key(TermOrder(name))
    basis = {}
    for batch in batches:
        _reduce_into(basis, map(_integral, batch), key)
        for p, r in basis.items():
            assert all(type(c) is int and c for c in r.values())
            assert math.gcd(*r.values()) == 1
            assert r[p] > 0 and max(r, key=key) == p
            assert all(q == p or p not in basis[q] for q in basis)


def test_integral_scales_by_the_denominators():
    row = {"a": Fraction(1, 6), "b": Fraction(-3, 4), "c": 2}
    assert _integral(row) == {"a": 2, "b": -9, "c": 24}
    assert _integral({"a": 4, "b": 6}) == {"a": 4, "b": 6}
