"""The main border basis computation (stabilized echelon algorithm)."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modborder import (
    PreconditionError,
    TermOrder,
    Vector,
    gb_normal_form,
    groebner_basis,
    is_border_basis,
    module_border_basis,
    naive_border_basis,
)
from modborder.ring import term_deg, terms_up_to_degree
from modborder.textio import parse_vector

from conftest import VARS, vec


def test_golden(order, mbba_gens, basis4):
    om, g = module_border_basis(mbba_gens, order)
    assert om.module_terms == [((0, 0), 1), ((0, 0), 2)]
    assert om.border_terms == [
        ((1, 0), 1), ((0, 1), 1), ((1, 0), 2), ((0, 1), 2),
    ]
    assert g.vectors() == [
        vec("x*e1 + 4/3*e1 + 2/3*e2"),
        vec("y*e1 - e1"),
        vec("x*e2 - 2/3*e1 - 1/3*e2"),
        vec("y*e2 - e2"),
    ]
    assert g == basis4
    assert is_border_basis(g) == (True, None)


def test_corner_subset_is_reduced_gb(order, mbba_gens):
    om, g = module_border_basis(mbba_gens, order)
    corners = om.corners()
    corner_vectors = [
        g.vector(om.border_pos[mt]) for mt in sorted(
            corners, key=om.order.mod_key, reverse=True
        )
    ]
    gb = groebner_basis(mbba_gens, order)
    key = lambda v: sorted(v.coeffs.items())
    assert sorted(corner_vectors, key=key) == sorted(gb, key=key)


def test_generators_divide_to_zero(order, mbba_gens):
    from modborder import normal_remainder

    _, g = module_border_basis(mbba_gens, order)
    for v in mbba_gens:
        assert normal_remainder(g, v).is_zero()


def test_idempotent_on_basis_vectors(order, basis4):
    om, g = module_border_basis(basis4.vectors(), order)
    assert om == basis4.om
    assert g == basis4


def test_rank_one_ideal(order, subideal_data):
    from modborder import naive_border_basis

    hgens, _ = subideal_data
    gens = [Vector.from_polys([p]) for p in hgens]
    assert module_border_basis(gens, order) == naive_border_basis(gens, order)


def test_infinite_codimension_cap(order):
    with pytest.raises(PreconditionError, match=r"cap 6 reached"):
        module_border_basis([vec("x*e1")], order, max_degree=6)
    # a large starting degree trips the cap immediately
    with pytest.raises(PreconditionError, match="possibly infinite"):
        module_border_basis([vec("x^9*e1")], order, max_degree=8)


def test_rank_handling(order):
    with pytest.raises(PreconditionError, match="cannot infer the rank"):
        module_border_basis([], order)
    with pytest.raises(PreconditionError, match="no generators for rank 2"):
        module_border_basis([], order, rank=2)
    om, g = module_border_basis([], order, rank=0)
    assert om.rank == 0 and om.mu == 0
    assert g.vectors() == []
    with pytest.raises(PreconditionError, match="rank-0"):
        module_border_basis([Vector.zero(2, 0)], order, rank=0)


def test_bad_generators(order):
    with pytest.raises(PreconditionError, match="zero generator"):
        module_border_basis([vec("x*e1"), Vector.zero(2, 2)], order)
    with pytest.raises(PreconditionError, match="different modules"):
        module_border_basis([vec("x*e1"), Vector.unit(2, 3, 1)], order)


def test_full_module(order):
    # U = P^2: the order module is empty, the basis the unit vectors
    om, g = module_border_basis([vec("e1"), vec("e2")], order)
    assert om.mu == 0
    assert om.border_terms == [((0, 0), 1), ((0, 0), 2)]
    assert g.vectors() == [vec("e1"), vec("e2")]


def test_mixed_component_generators(order):
    # U = <x e1 - e2, e2 components...>: codimension drops to mu = 1
    gens = [vec("x*e1 - e2"), vec("y*e1"), vec("x*e2 + y*e1"), vec("y*e2 - x*e1")]
    om, g = module_border_basis(gens, order)
    assert is_border_basis(g) == (True, None)
    from modborder import naive_border_basis

    assert naive_border_basis(gens, order) == (om, g)


def test_lex_eliminates_degree_first():
    # eliminating in plain lex order over a degree-truncated universe reads a
    # non-divisor-closed complement off this finite-codimension ideal
    lex = TermOrder("lex")
    gens = [
        parse_vector(s, VARS, 1)
        for s in (
            "x^2*y^2*e1 - 3*x^3*y*e1 + x^2*y*e1 - x^2*e1",
            "x^3*y^2*e1 + x^3*e1 + 3*y^2*e1",
        )
    ]
    om, g = module_border_basis(gens, lex)
    assert om.mu == 12
    assert is_border_basis(g) == (True, None)
    gb = groebner_basis(gens, lex)
    for v in g.vectors():
        assert gb_normal_form(gb, v, lex).is_zero()


# ---------------------------------------------------------------------------
# differential test on modules of known codimension


def unimodular(rank, mix):
    """L*U, of determinant 1, for the unitriangular integer matrices U
    (upper) and L (lower) whose off-diagonal entries are `mix`, U's first."""
    entries, n = iter(mix), range(rank)
    u = [[next(entries) if i < j else int(i == j) for j in n] for i in n]
    l = [[next(entries) if i > j else int(i == j) for j in n] for i in n]
    return [[sum(l[i][m] * u[m][j] for m in n) for j in n] for i in n]


def known_codim_module(exps, mix, seed):
    """Generators of a module of codimension sum_k prod_i a_ki.

    Component k gets x_i^a_ki plus up to three random terms of lower degree:
    the leading forms x_i^a_ki have no common zero at infinity, so the ideal
    has codimension prod_i a_ki (Bezout).  The components are mixed by the
    unimodular integer matrix `unimodular(rank, mix)`, an automorphism of
    P^r that keeps the codimension; for rank 2 it is [[1, b], [c, 1 + b*c]]
    with (b, c) = mix.  The lower terms have denominators up to 7 and, one
    time in eight, a numerator of about 10^12.
    """
    rng = random.Random(seed)
    nvars, rank = len(exps[0]), len(exps)
    matrix = unimodular(rank, mix)
    gens = []
    for k, a in enumerate(exps):
        for i in range(nvars):
            lead = tuple(a[i] if j == i else 0 for j in range(nvars))
            poly = {lead: Fraction(1)}
            pool = terms_up_to_degree(nvars, a[i] - 1)
            for t in rng.sample(pool, min(3, len(pool))):
                big = 10**12 if rng.randrange(8) == 0 else 3
                poly[t] = Fraction(rng.randint(-big, big), rng.randint(1, 7))
            coeffs = {
                (t, row + 1): matrix[row][k] * x
                for row in range(rank)
                for t, x in poly.items()
            }
            gens.append(Vector(nvars, rank, coeffs))
    return gens, sum(math.prod(a) for a in exps)


@st.composite
def known_codim_inputs(draw):
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    top = 3 if nvars * rank < 6 and nvars < 3 else 2
    exps = [
        tuple(draw(st.integers(1, top)) for _ in range(nvars))
        for _ in range(rank)
    ]
    mix = tuple(draw(st.integers(-2, 2)) for _ in range(rank * (rank - 1)))
    return exps, mix, draw(st.integers(0, 2**16))


# generators of degree 3 (resp. 2) whose border reaches degree 5 (resp. 4):
# the echelon form is carried across two degree increments
CARRIED = [([(3, 3)], (1, -1), 1), ([(2, 2, 2)], (0, 0), 3)]


@settings(max_examples=100, deadline=None)
@given(known_codim_inputs(), st.sampled_from(["degrevlex", "deglex", "lex"]))
@example(CARRIED[0], "degrevlex")
@example(CARRIED[0], "lex")
@example(CARRIED[1], "deglex")
@example(([(3, 2), (2, 3)], (1, 2), 4), "degrevlex")
@example(([(2, 1), (1, 2), (2, 2)], (1, -1, 2, 1, -2, 1), 5), "deglex")
def test_matches_oracles_on_known_codimension(data, name):
    exps, mix, seed = data
    order = TermOrder(name)
    gens, mu = known_codim_module(exps, mix, seed)
    om, g = module_border_basis(gens, order)
    assert om.mu == mu
    if name != "lex":
        assert (om, g) == naive_border_basis(gens, order)
        return
    assert is_border_basis(g) == (True, None)
    gb = groebner_basis(gens, order)
    for v in g.vectors():
        assert gb_normal_form(gb, v, order).is_zero()


def test_carried_examples_start_two_degrees_below_the_border():
    for exps, mix, seed in CARRIED:
        gens, _ = known_codim_module(exps, mix, seed)
        om, _ = module_border_basis(gens, TermOrder("degrevlex"))
        top = max(term_deg(t) for t, _ in om.border_terms)
        assert top - max(v.degree() for v in gens) >= 2


@settings(max_examples=40, deadline=None)
@given(
    known_codim_inputs(),
    st.sampled_from(["degrevlex", "deglex", "lex"]),
    st.lists(
        st.fractions(-(10**12), 10**12, max_denominator=7).filter(bool),
        min_size=9,
        max_size=9,
    ),
)
def test_scaling_generators_keeps_the_basis(data, name, scalars):
    exps, mix, seed = data
    order = TermOrder(name)
    gens, _ = known_codim_module(exps, mix, seed)
    scaled = [v.scale(c) for v, c in zip(gens, scalars)]
    assert module_border_basis(scaled, order) == module_border_basis(gens, order)
