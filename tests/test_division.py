"""Border division, normal remainders/forms, and prebasis reconstruction."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modborder import (
    OrderIdeal,
    OrderModule,
    Prebasis,
    PreconditionError,
    Vector,
    divide,
    gb_normal_form,
    groebner_basis,
    naive_border_basis,
    normal_form,
    normal_remainder,
    reconstruct_prebasis,
    remainder_vector,
    rewrite_step,
    sv_vector,
)

from modborder.division import DivisionResult
from modborder.ring import Poly, term_deg, term_mul, terms_up_to_degree

from conftest import (
    PREBASIS7,
    pol,
    random_prebases,
    random_vectors,
    vec,
)

X, Y = (1, 0), (0, 1)


# ---------------------------------------------------------------------------
# prebasis construction


def test_prebasis_shape_checked(prebasis7):
    om = prebasis7.om
    with pytest.raises(PreconditionError, match="must be 6x7"):
        Prebasis(om, [[0] * om.nu for _ in range(om.mu - 1)])


def test_from_vectors_roundtrip(order, prebasis7):
    om = prebasis7.om
    shuffled = list(reversed(prebasis7.vectors()))
    assert Prebasis.from_vectors(om, shuffled) == prebasis7
    assert prebasis7.vector(0) == vec("x^2*e1 - y*e1 + e2")


def test_from_vectors_errors(order, prebasis7):
    om = prebasis7.om
    vs = prebasis7.vectors()
    with pytest.raises(PreconditionError, match="expected 7 prebasis vectors"):
        Prebasis.from_vectors(om, vs[:-1])
    with pytest.raises(PreconditionError, match="exactly one border term"):
        Prebasis.from_vectors(om, vs[:-1] + [vec("x^2*e1 + x*y*e1")])
    with pytest.raises(PreconditionError, match="coefficient must be 1"):
        Prebasis.from_vectors(om, vs[:-1] + [vec("2*y*e2")])
    with pytest.raises(PreconditionError, match="duplicate border term"):
        Prebasis.from_vectors(om, vs[:-1] + [vec("x^2*e1")])
    with pytest.raises(PreconditionError, match="outside the order module"):
        Prebasis.from_vectors(om, vs[:-1] + [vec("y*e2 - x^2*y^2*e1")])


# ---------------------------------------------------------------------------
# division


def test_division_golden(prebasis7):
    v = vec("x^3*e1 + x*y*e1 + x^3*y*e2")
    res = divide(prebasis7, v)
    assert res.quotients == [
        pol("x"), pol("2"), pol("0"), pol("y"), pol("0"), pol("0"), pol("0"),
    ]
    # remainder coordinates over M = (x e1, y e1, e1, x^2 e2, x e2, e2)
    assert res.remainder_coords == [0, 1, 0, 0, -1, 2]
    assert normal_remainder(prebasis7, v) == vec("y*e1 - x*e2 + 2*e2")


def test_division_identity(prebasis7):
    v = vec("x^3*e1 + x*y*e1 + x^3*y*e2")
    res = divide(prebasis7, v)
    acc = remainder_vector(prebasis7, res.remainder_coords)
    for q, g in zip(res.quotients, prebasis7.vectors()):
        acc = acc + g.mul_poly(q)
    assert acc == v


def test_division_of_zero_and_module_vectors(prebasis7):
    res = divide(prebasis7, Vector.zero(2, 2))
    assert all(q.is_zero() for q in res.quotients)
    assert res.remainder_coords == [0] * 6
    inside = vec("x*e1 - 5*e2")
    res = divide(prebasis7, inside)
    assert all(q.is_zero() for q in res.quotients)
    assert normal_remainder(prebasis7, inside) == inside


def test_division_choice_invariance(prebasis7):
    rng = random.Random(2024)
    v = vec("x^3*e1 + x*y*e1 + x^3*y*e2")
    want = divide(prebasis7, v)
    for _ in range(50):
        got = divide(prebasis7, v, choose=rng.choice)
        assert got.remainder_coords == want.remainder_coords
        # quotients may differ as polynomials only in intermediate tallies,
        # not here: division by a prebasis of this shape is deterministic in
        # value, so assert the full identity instead
        acc = remainder_vector(prebasis7, got.remainder_coords)
        for q, g in zip(got.quotients, prebasis7.vectors()):
            acc = acc + g.mul_poly(q)
        assert acc == v


def test_choose_hook_receives_descending_candidates(prebasis7):
    seen = []

    def pick_last(cands):
        seen.append(list(cands))
        return cands[-1]

    divide(prebasis7, vec("x^3*e1 + x^3*y*e2"), choose=pick_last)
    assert seen
    for cands in seen:
        keys = [prebasis7.om.order.mod_key(mt) for mt in cands]
        assert keys == sorted(keys, reverse=True)
        ind = {prebasis7.om.index(mt) for mt in cands}
        assert len(ind) == 1


def test_division_respects_index_drop(prebasis7):
    # NR has M-index 0: its support lies inside the order module
    om = prebasis7.om
    nr = normal_remainder(prebasis7, vec("x^2*y^2*e1 + x^4*e2 - e1"))
    assert all(mt in om.module_pos for mt in nr.support())


def _known_codim_gens(rng, exps):
    """Generators of a module of codimension sum_k prod_i a_ki: component k
    gets x_i^a_ki plus random lower-degree terms (the pure-power leading
    forms make them a Groebner basis), then e2 += c*e1 mixes the components,
    an automorphism of P^r."""
    nvars, rank = len(exps[0]), len(exps)
    c = rng.choice([-2, -1, 1, 2])
    gens = []
    for k, a in enumerate(exps, start=1):
        for i in range(nvars):
            lead = tuple(a[i] if j == i else 0 for j in range(nvars))
            coeffs = {(lead, k): Fraction(1)}
            for t in terms_up_to_degree(nvars, a[i] - 1):
                coeffs[(t, k)] = Fraction(rng.randint(-3, 3))
            if k == 2:
                coeffs.update({(t, 1): c * x for (t, _), x in coeffs.items()})
            gens.append(Vector(nvars, rank, coeffs))
    return gens, sum(math.prod(a) for a in exps)


@pytest.mark.parametrize(
    "exps,seed", [([(2, 2), (3, 1)], 5), ([(2, 1, 2)], 6), ([(1, 3), (2, 2)], 7)]
)
def test_division_on_known_codimension_basis(order, exps, seed):
    rng = random.Random(seed)
    gens, mu = _known_codim_gens(rng, exps)
    om, g = naive_border_basis(gens, order)
    assert om.mu == mu
    gb = groebner_basis(gens, order)
    top = max(term_deg(t) for t, _ in om.border_terms) + 2
    pool = terms_up_to_degree(om.nvars, top)
    for _ in range(15):
        coeffs = {
            (rng.choice(pool), rng.randint(1, om.rank)):
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(rng.randint(1, 6))
        }
        v = Vector(om.nvars, om.rank, coeffs)
        res = divide(g, v, choose=rng.choice)
        nr = remainder_vector(g, res.remainder_coords)
        assert nr == gb_normal_form(gb, v, order)
        acc = nr
        for q, gj in zip(res.quotients, g.vectors()):
            acc = acc + gj.mul_poly(q)
        assert acc == v


def test_division_wrong_module_rejected(prebasis7):
    with pytest.raises(PreconditionError):
        divide(prebasis7, Vector.zero(2, 3))


def _reference_divide(g, v, choose=None):
    """Border division as one Fraction coefficient dict, looking up the
    M-index of the whole remainder at every step: the loop that `divide`
    replaced, kept as its oracle."""
    om = g.om
    index, mod_key = om.index, om.order.mod_key
    quotients = [{} for _ in range(om.nu)]
    q = dict(v.coeffs)
    while q:
        inds = {mt: index(mt) for mt in q}
        ind = max(inds.values())
        if ind == 0:
            break
        cands = [mt for mt, i in inds.items() if i == ind]
        cands.sort(key=mod_key, reverse=True)
        mt = cands[0] if choose is None else choose(cands)
        a = q[mt]
        tprime, bmt = om.factor_through_border(mt)
        j = om.border_pos[bmt]
        pj = quotients[j]
        pj[tprime] = pj.get(tprime, 0) + a
        for (s, k), c in g.vector(j).coeffs.items():
            key = (term_mul(tprime, s), k)
            r = q.get(key, 0) - a * c
            if r:
                q[key] = r
            else:
                del q[key]
    coords = [q.get(mt, Fraction(0)) for mt in om.module_terms]
    return DivisionResult([Poly(om.nvars, p) for p in quotients], coords)


def _recording_choice(seed):
    """A random `choose` hook that keeps a copy of every candidate list."""
    rng = random.Random(seed)
    seen = []

    def choose(cands):
        seen.append(list(cands))
        return rng.choice(cands)

    return choose, seen


@settings(max_examples=80, deadline=None)
@given(random_prebases(), st.integers(0, 2**16))
def test_division_matches_fraction_reference(case, seed):
    g, _ = case
    rng = random.Random(seed)
    vectors = random_vectors(rng, g.om, 4)
    nu = g.om.nu
    for _ in range(4):
        i, j = rng.randrange(nu), rng.randrange(nu)
        if i != j:
            vectors.append(sv_vector(g, i, j))
    for v in vectors:
        assert divide(g, v) == _reference_divide(g, v)
        choose, seen = _recording_choice(seed)
        want_choose, want_seen = _recording_choice(seed)
        assert divide(g, v, choose) == _reference_divide(g, v, want_choose)
        assert seen == want_seen


# ---------------------------------------------------------------------------
# rewrite steps


def test_rewrite_step(prebasis7):
    v = vec("x^3*e1")
    # x^3 e1 = x * (x^2 e1) rewrites through G_1 = x^2 e1 - y e1 + e2
    w = rewrite_step(prebasis7, v, ((3, 0), 1), 0)
    assert w == vec("x*y*e1 - x*e2")
    with pytest.raises(PreconditionError, match="not in the support"):
        rewrite_step(prebasis7, v, ((2, 0), 1), 0)
    with pytest.raises(PreconditionError, match="not a multiple"):
        rewrite_step(prebasis7, v, ((3, 0), 1), 2)


def test_rewrite_chain_reaches_normal_remainder(prebasis7):
    # rewriting until no border multiple survives agrees with divide()
    om = prebasis7.om
    v = vec("x^3*e1 + x*y*e1 + x^3*y*e2")
    w = v
    while True:
        cand = None
        for mt in sorted(w.support(), key=om.order.mod_key, reverse=True):
            if om.index(mt) > 0:
                cand = mt
                break
        if cand is None:
            break
        _, bmt = om.factor_through_border(cand)
        w = rewrite_step(prebasis7, w, cand, om.border_pos[bmt])
    assert w == normal_remainder(prebasis7, v)


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_requires_border_basis(prebasis7):
    with pytest.raises(PreconditionError, match=r"pair \(1,2\)"):
        normal_form(prebasis7, vec("x^2*e1"))


def test_normal_form_on_border_basis(basis4):
    v = vec("x^2*y*e1 - 3*e2")
    nf = normal_form(basis4, v)
    assert nf == normal_remainder(basis4, v)
    assert normal_form(basis4, nf) == nf
    w = vec("y^5*e2 + x*e1")
    assert normal_form(basis4, v + w) == nf + normal_form(basis4, w)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruction_golden(order, prebasis7):
    om = prebasis7.om
    assert om.module_terms == [
        (X, 1), (Y, 1), ((0, 0), 1), ((2, 0), 2), (X, 2), ((0, 0), 2),
    ]
    assert om.border_terms == [
        ((2, 0), 1), ((1, 1), 1), ((0, 2), 1),
        ((3, 0), 2), ((2, 1), 2), ((1, 1), 2), ((0, 1), 2),
    ]


def test_reconstruction_order_independent(order):
    vs = [vec(s) for s in PREBASIS7]
    assert reconstruct_prebasis(list(reversed(vs)), order) == \
        reconstruct_prebasis(vs, order)


def test_reconstruction_needs_backtracking(order):
    # the support closure is the full degree-3 staircase; its interior
    # {1, x, y, x^2, x*y, y^2} overshoots mu = 5, and only demoting x*y
    # yields an order ideal whose border matches the remaining terms
    def v1(s):
        from modborder.textio import parse_vector

        return parse_vector(s, ["x", "y"], 1)

    vs = [
        v1("x*y*e1 - e1"),
        v1("x^3*e1 - x*e1"),
        v1("x^2*y*e1 + y^2*e1 - e1"),
        v1("x*y^2*e1 + x^2*e1"),
        v1("y^3*e1 - y*e1 + 2*e1"),
    ]
    g = reconstruct_prebasis(vs, order)
    assert [t for t, _ in g.om.module_terms] == [
        (2, 0), (0, 2), X, Y, (0, 0),
    ]
    assert set(g.om.border_terms) == {
        ((1, 1), 1), ((3, 0), 1), ((2, 1), 1), ((1, 2), 1), ((0, 3), 1),
    }


def test_reconstruction_errors(order):
    with pytest.raises(PreconditionError, match="no prebasis vectors"):
        reconstruct_prebasis([], order)
    with pytest.raises(PreconditionError, match="zero vector"):
        reconstruct_prebasis([Vector.zero(2, 2)], order)
    with pytest.raises(PreconditionError, match="more vectors than border"):
        reconstruct_prebasis([vec("x*e1"), vec("x*e1"), vec("x*e1")], order)
    # heads {x, y, x*y} over tails in {1}: no order ideal fits
    with pytest.raises(PreconditionError, match="do not form"):
        reconstruct_prebasis(
            [vec("x*e1 - e1"), vec("y*e1 + e1"), vec("x*y*e1")], order
        )
    with pytest.raises(PreconditionError, match="different modules"):
        reconstruct_prebasis([vec("x*e1"), Vector.zero(2, 3)], order)


def _staircase_vectors(d):
    """x^a*y^b*e1 for all a + b <= d: every demotion of the top layer of the
    staircase is a candidate order module, so their number is a Catalan
    number."""
    return [
        Vector(2, 1, {(t, 1): Fraction(1)}) for t in terms_up_to_degree(2, d)
    ]


def test_reconstruction_search_is_capped(order):
    with pytest.raises(PreconditionError, match="do not form"):
        reconstruct_prebasis(_staircase_vectors(6), order)
    start = time.monotonic()
    with pytest.raises(
        PreconditionError,
        match="gave up: more than 1000 candidate order modules searched",
    ):
        reconstruct_prebasis(_staircase_vectors(9), order)
    assert time.monotonic() - start < 5.0
