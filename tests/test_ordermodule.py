"""Order ideals, order modules, borders, the M-index, and corners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modborder import OrderIdeal, OrderModule, PreconditionError, TermOrder
from modborder.ordermodule import validate_order_module
from modborder.ring import term_deg, term_divides, term_quot, terms_up_to_degree

from conftest import vec

X, Y, ONE = (1, 0), (0, 1), (0, 0)
X2, XY, Y2 = (2, 0), (1, 1), (0, 2)
X3, X2Y, XY2, Y3 = (3, 0), (2, 1), (1, 2), (0, 3)

O1_TERMS = {X, Y, ONE}
O2_TERMS = {X2, X, ONE}


@pytest.fixture(scope="module")
def o1():
    return OrderIdeal(2, O1_TERMS)


@pytest.fixture(scope="module")
def o2():
    return OrderIdeal(2, O2_TERMS)


@pytest.fixture(scope="module")
def m(o1, o2):
    return OrderModule([o1, o2], TermOrder("degrevlex"))


# ---------------------------------------------------------------------------
# order ideals and their borders


def test_divisor_closure_enforced():
    with pytest.raises(PreconditionError, match="not divisor-closed"):
        OrderIdeal(2, {X2, ONE})


def test_first_borders(o1, o2):
    assert o1.border(1) == {X2, XY, Y2}
    assert o2.border(1) == {X3, X2Y, XY, Y}


def test_second_borders(o1, o2):
    assert o1.border(2) == {X3, X2Y, XY2, Y3}
    assert o2.border(2) == {(4, 0), (3, 1), (2, 2), XY2, Y2}


def test_border_of_empty_ideal():
    empty = OrderIdeal(2, set())
    assert empty.is_empty()
    # the k-th border of the empty order ideal is all terms of degree k-1
    assert empty.border(1) == {ONE}
    assert empty.border(2) == {X, Y}
    assert empty.border(3) == {X2, XY, Y2}


def test_border_closure(o1):
    assert o1.border_closure(0) == O1_TERMS
    assert o1.border_closure(2) == O1_TERMS | o1.border(1) | o1.border(2)


def test_module_borders(m):
    assert set(m.module_terms) == {
        (X, 1), (Y, 1), (ONE, 1), (X2, 2), (X, 2), (ONE, 2),
    }
    assert m.border(1) == {
        (X2, 1), (XY, 1), (Y2, 1), (X3, 2), (X2Y, 2), (XY, 2), (Y, 2),
    }
    assert m.border(2) == {
        (X3, 1), (X2Y, 1), (XY2, 1), (Y3, 1),
        ((4, 0), 2), ((3, 1), 2), ((2, 2), 2), (XY2, 2), (Y2, 2),
    }


def test_borders_partition_disjointly(m):
    seen = set(m.module_terms)
    for k in range(1, 4):
        bk = m.border(k)
        assert not (bk & seen)
        seen |= bk


# ---------------------------------------------------------------------------
# canonical enumeration


def test_canonical_enumeration_component_major_descending(m):
    assert m.module_terms == [
        (X, 1), (Y, 1), (ONE, 1), (X2, 2), (X, 2), (ONE, 2),
    ]
    assert m.border_terms == [
        (X2, 1), (XY, 1), (Y2, 1), (X3, 2), (X2Y, 2), (XY, 2), (Y, 2),
    ]
    assert m.mu == 6
    assert m.nu == 7
    assert m.module_pos[(Y, 1)] == 1
    assert m.border_pos[(Y, 2)] == 6


def test_membership_and_equality(m, o1, o2):
    assert (X, 1) in m
    assert (X2, 1) not in m
    assert m == OrderModule([o1, o2], TermOrder("degrevlex"))
    assert m != OrderModule([o2, o1], TermOrder("degrevlex"))


# ---------------------------------------------------------------------------
# the M-index


def test_index_goldens(m):
    assert m.index((X, 1)) == 0
    assert m.index(((2, 2), 2)) == 2
    assert m.index_vec(vec("x*e1 + x^2*y^2*e2")) == 2


def test_index_on_borders(m):
    for k in range(1, 4):
        assert all(m.index(mt) == k for mt in m.border(k))


def test_index_of_zero_vector_undefined(m):
    from modborder import Vector

    with pytest.raises(PreconditionError):
        m.index_vec(Vector.zero(2, 2))


def test_index_component_range_checked(m):
    with pytest.raises(PreconditionError, match="component 3 out of range"):
        m.index((X, 3))


def test_index_for_empty_component():
    m = OrderModule([OrderIdeal(2, {ONE}), OrderIdeal(2, set())],
                    TermOrder("degrevlex"))
    # with O_2 empty, t*e2 has index deg(t) + 1
    assert m.index((ONE, 2)) == 1
    assert m.index((X2Y, 2)) == 4


# ---------------------------------------------------------------------------
# factorization through the border


def test_factor_through_border(m):
    t, b = m.factor_through_border(((3, 1), 2))
    assert (t, b) == ((0, 1), (X3, 2))
    t, b = m.factor_through_border((X3, 1))
    assert (t, b) == ((1, 0), (X2, 1))


def test_factor_prefers_smallest_border_position(m):
    # x^2*y^2 e1 factors through x^2 e1, x*y e1, and y^2 e1 with deg 2
    # cofactor 1; the canonical enumeration starts at x^2 e1
    t, b = m.factor_through_border(((2, 2), 1))
    assert m.index(((2, 2), 1)) == 3
    assert (t, b) == ((0, 2), (X2, 1))


def test_factor_rejects_module_terms(m):
    with pytest.raises(PreconditionError):
        m.factor_through_border((X, 1))


# ---------------------------------------------------------------------------
# the kept first border, index and factorization against their definitions


def _divisor_closure(terms):
    out = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t not in out:
            out.add(t)
            stack.extend(
                tuple(f - (j == i) for j, f in enumerate(t))
                for i, e in enumerate(t)
                if e
            )
    return out


@st.composite
def order_modules(draw):
    """(nvars, term sets): random divisor-closed ideals, n <= 3, rank <= 2."""
    n = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 2))
    term = st.tuples(*[st.integers(0, 3)] * n)
    return n, [
        _divisor_closure(draw(st.lists(term, max_size=3))) for _ in range(rank)
    ]


def _brute_factor(om, mt):
    """The border term of mt's component dividing t with the smallest
    cofactor degree, first in the canonical enumeration."""
    t, k = mt
    best = None
    for b, kk in om.border_terms:
        if kk == k and term_divides(b, t):
            gap = term_deg(t) - term_deg(b)
            if best is None or gap < best[0]:
                best = (gap, term_quot(t, b), (b, kk))
    return best[1:]


@settings(max_examples=60, deadline=None)
@given(order_modules())
def test_kept_index_and_factor_match_definitions(data):
    n, ideals = data
    om = OrderModule([OrderIdeal(n, ts) for ts in ideals],
                     TermOrder("degrevlex"))
    for k, ts in enumerate(ideals, start=1):
        # a fresh ideal computes each border by the closed formula
        ref = OrderIdeal(n, ts)
        top = max((term_deg(t) for t in ts), default=0) + 4
        universe = terms_up_to_degree(n, top)
        first = [om.index((t, k)) for t in universe]
        assert [om.index((t, k)) for t in universe] == first
        by_index = {}
        for t, i in zip(universe, first):
            by_index.setdefault(i, set()).add(t)
        assert by_index.get(0, set()) == ts
        for i in range(1, 5):
            assert by_index.get(i, set()) == ref.border(i)
        for t in universe:
            if t in ts:
                continue
            got = om.factor_through_border((t, k))
            assert got == _brute_factor(om, (t, k))
            assert om.factor_through_border((t, k)) == got
    one = (0,) * n
    for _ in range(2):
        for k in (0, len(ideals) + 1):
            with pytest.raises(PreconditionError, match="out of range"):
                om.index((one, k))
            with pytest.raises(PreconditionError, match="out of range"):
                om.factor_through_border((one, k))
        if om.module_terms:
            with pytest.raises(PreconditionError, match="in the order module"):
                om.factor_through_border(om.module_terms[0])


# ---------------------------------------------------------------------------
# corners


def test_corners(o1, o2, m):
    assert o1.corners() == {X2, XY, Y2}
    # x*y is not a corner of O2: its divisor y lies outside O2
    assert o2.corners() == {X3, Y}
    assert m.corners() == {
        (X2, 1), (XY, 1), (Y2, 1), (X3, 2), (Y, 2),
    }


def test_corners_of_empty_ideal():
    assert OrderIdeal(2, set()).corners() == {ONE}


# ---------------------------------------------------------------------------
# validation helper


def test_validate_order_module():
    m = validate_order_module([{ONE, X}, set()], TermOrder("degrevlex"),
                              nvars=2)
    assert m.rank == 2
    assert m.mu == 2
    with pytest.raises(PreconditionError):
        validate_order_module([{X}], TermOrder("degrevlex"), nvars=2)
