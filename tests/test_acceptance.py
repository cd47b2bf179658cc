"""Acceptance gate: one test per shipped guarantee.

Criteria 1-8 pin the worked examples exactly (golden values, zero
tolerance); criteria 9-11 are randomized property suites.  Each test prints
one ``CRITERION k: PASS/FAIL`` line (visible under ``pytest -s`` and in the
captured output of failures).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import BASIS4, MBBA_GENS, PREBASIS7, SUBIDEAL_F, SUBIDEAL_I, VARS, pol, vec
from modborder import (
    OrderIdeal,
    OrderModule,
    Prebasis,
    PreconditionError,
    QuotientContext,
    TermOrder,
    Vector,
    buchberger_check,
    build_characterizing_prebasis,
    check_quotient_basis,
    commuting_check,
    divide,
    gb_normal_form,
    groebner_basis,
    module_border_basis,
    mult_matrices,
    naive_border_basis,
    normal_remainder,
    quotient_border_basis,
    reconstruct_prebasis,
    remainder_vector,
    subideal_border_basis,
    syzygies,
)
from modborder.characterize import _mat_mul
from modborder.ring import term_deg, term_mul, terms_up_to_degree
from modborder.textio import format_vector, parse_vector

ORDER = TermOrder("degrevlex")

X, Y, ONE = (1, 0), (0, 1), (0, 0)
X2, XY, Y2 = (2, 0), (1, 1), (0, 2)
X3, X2Y, XY2, Y3 = (3, 0), (2, 1), (1, 2), (0, 3)


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL - {summary}")
        raise
    print(f"CRITERION {number}: PASS - {summary}")


def same_vectors(got, expected):
    key = lambda v: sorted(v.coeffs.items())
    return sorted(got, key=key) == sorted(expected, key=key)


# ---------------------------------------------------------------------------
# random generators shared by the property criteria


def random_order_ideal(rng, max_extra=4):
    """A random nonempty staircase in two variables, grown divisor-closed."""
    terms = {ONE}
    for _ in range(rng.randrange(max_extra + 1)):
        cands = []
        for a, b in terms:
            for c in ((a + 1, b), (a, b + 1)):
                if c in terms or c in cands:
                    continue
                if (c[0] == 0 or (c[0] - 1, c[1]) in terms) and (
                    c[1] == 0 or (c[0], c[1] - 1) in terms
                ):
                    cands.append(c)
        if not cands:
            break
        terms.add(rng.choice(sorted(cands)))
    return OrderIdeal(2, terms)


def random_order_module(rng):
    return OrderModule([random_order_ideal(rng), random_order_ideal(rng)], ORDER)


def random_prebasis(rng, om):
    coeffs = [[Fraction(0)] * om.nu for _ in range(om.mu)]
    for j in range(om.nu):
        for i in range(om.mu):
            if rng.random() < 0.4:
                coeffs[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Prebasis(om, coeffs)


def random_finite_codim_gens(rng):
    """Random degree <= 2 generators spanning a finite-codimension submodule.

    Each component receives generators headed by a pure x-power and a pure
    y-power (with sigma-Pos-smaller tails), which bounds the complement;
    extra fully random vectors only shrink it further.
    """
    pool = terms_up_to_degree(2, 2)
    gens = []
    for k in (1, 2):
        for head_t in ((rng.randint(1, 2), 0), (0, rng.randint(1, 2))):
            head = (head_t, k)
            coeffs = {head: Fraction(1)}
            tail_pool = [
                mt
                for t in pool
                for mt in ((t, 1), (t, 2))
                if ORDER.mod_key(mt) < ORDER.mod_key(head)
            ]
            for mt in rng.sample(tail_pool, min(rng.randrange(4), len(tail_pool))):
                coeffs[mt] = Fraction(rng.randint(-2, 2))
            gens.append(Vector(2, 2, coeffs))
    for _ in range(rng.randrange(3)):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            t = rng.choice(pool)
            coeffs[(t, rng.randint(1, 2))] = Fraction(rng.randint(-2, 2))
        extra = Vector(2, 2, coeffs)
        if not extra.is_zero():
            gens.append(extra)
    return gens


def random_vector_in(rng, om):
    deg = max((term_deg(t) for t, _ in om.border_terms), default=0) + 1
    pool = terms_up_to_degree(om.nvars, deg)
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        t = rng.choice(pool)
        k = rng.randint(1, om.rank)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        coeffs[(t, k)] = coeffs.get((t, k), Fraction(0)) + c
    return Vector(om.nvars, om.rank, coeffs)


# ---------------------------------------------------------------------------
# golden criteria


def test_criterion_01_golden_borders():
    with criterion(1, "first and second borders of the worked examples"):
        o1 = OrderIdeal(2, {X, Y, ONE})
        o2 = OrderIdeal(2, {X2, X, ONE})
        m = OrderModule([o1, o2], ORDER)
        assert o1.border(1) == {X2, XY, Y2}
        assert o1.border(2) == {X3, X2Y, XY2, Y3}
        assert m.border(1) == {
            (X2, 1), (XY, 1), (Y2, 1), (X3, 2), (X2Y, 2), (XY, 2), (Y, 2),
        }
        assert m.border(2) == {
            (X3, 1), (X2Y, 1), (XY2, 1), (Y3, 1),
            ((4, 0), 2), ((3, 1), 2), ((2, 2), 2), (XY2, 2), (Y2, 2),
        }
        best = min(
            _timed(lambda: (o1.border(1), o1.border(2), m.border(1), m.border(2)))
            for _ in range(20)
        )
        assert best < 1e-3, f"border computation took {best:.6f}s"


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_02_golden_division():
    with criterion(2, "division quotients, remainder, and shuffle invariance"):
        g = reconstruct_prebasis([vec(s) for s in PREBASIS7], ORDER)
        v = vec("x^3*e1 + x*y*e1 + x^3*y*e2")
        res = divide(g, v)
        assert res.quotients == [
            pol("x"), pol("2"), pol("0"), pol("y"), pol("0"), pol("0"), pol("0"),
        ]
        nr = remainder_vector(g, res.remainder_coords)
        assert nr == vec("y*e1 - x*e2 + 2*e2")
        rng = random.Random(2024)
        for _ in range(50):
            shuffled = divide(g, v, choose=lambda cands: rng.choice(cands))
            assert shuffled.remainder_coords == res.remainder_coords


def test_criterion_03_golden_multiplication_matrices():
    with criterion(3, "multiplication matrices and the commuting witness"):
        g = reconstruct_prebasis([vec(s) for s in PREBASIS7], ORDER)
        mm = mult_matrices(g)
        assert mm[0] == [
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
            [-1, 1, 0, 0, 0, 0],
        ]
        assert mm[1] == [
            [0, 0, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 1],
            [0, 0, 0, 1, -3, 1],
            [0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 1, 0, 1],
        ]
        ok, pair = commuting_check(mm)
        assert not ok and pair == (0, 1)
        assert _mat_mul(mm[0], mm[1])[0] == [0, 0, 0, 1, -3, 1]
        assert _mat_mul(mm[1], mm[0])[0] == [-1, 1, 0, 0, 0, 0]


def test_criterion_04_golden_buchberger_witness():
    with criterion(4, "Buchberger check fails at pair (1,2) with the exact NR"):
        g = reconstruct_prebasis([vec(s) for s in PREBASIS7], ORDER)
        ok, witness = buchberger_check(g)
        assert not ok
        i, j, nr = witness
        assert (i, j) == (0, 1)
        assert nr == vec("x*e1 + y*e1 + e1 + e2")


def test_criterion_05_golden_border_basis_and_groebner_corner_subset():
    with criterion(5, "border basis of the five generators; corners = reduced GB"):
        gens = [vec(s) for s in MBBA_GENS]
        om, g = module_border_basis(gens, ORDER)
        assert om.module_terms == [(ONE, 1), (ONE, 2)]
        assert g.vectors() == [vec(s) for s in BASIS4]
        corner_subset = [
            g.vector(j)
            for j, bmt in enumerate(om.border_terms)
            if bmt in om.corners()
        ]
        assert same_vectors(corner_subset, groebner_basis(gens, ORDER))


def test_criterion_06_golden_quotient_border_basis():
    with criterion(6, "quotient border basis classes match the epsilon images"):
        ugens = [vec(s) for s in MBBA_GENS[:4]]
        sgens = [vec(MBBA_GENS[4])]
        qp, om, g = quotient_border_basis(ugens, sgens, ORDER)
        assert qp.module_classes == [vec("e1"), vec("e2")]
        ctx = QuotientContext(sgens, ORDER)
        assert qp.basis_classes == [ctx.epsilon(vec(s)) for s in BASIS4]
        assert check_quotient_basis(qp) == (True, None)


def test_criterion_07_golden_subideal_border_basis():
    with criterion(7, "subideal border basis combinations and the syzygy module"):
        hgens = [pol(s) for s in SUBIDEAL_I]
        fgens = [pol(s) for s in SUBIDEAL_F]
        oF, gvecs = subideal_border_basis(hgens, fgens, ORDER)
        assert oF.formal_terms() == [(ONE, 1), (ONE, 2)]
        assert gvecs == [vec(s) for s in BASIS4]
        syz = syzygies(fgens, ORDER)
        target = [vec(MBBA_GENS[4])]
        gb_syz = groebner_basis(syz, ORDER)
        gb_target = groebner_basis(target, ORDER)
        assert all(gb_normal_form(gb_target, v, ORDER).is_zero() for v in syz)
        assert all(gb_normal_form(gb_syz, v, ORDER).is_zero() for v in target)


def test_criterion_08_no_characterizing_order_module():
    with criterion(8, "5-class quotient module admits no characterizing module"):
        ctx = QuotientContext([vec("x*e1 - y*e2")], ORDER)
        module_reps = [(X2, 1), (X, 1), (ONE, 1), (Y2, 2), (Y, 2), (ONE, 2)]
        with pytest.raises(PreconditionError, match="no characterizing order module"):
            build_characterizing_prebasis(
                module_reps, [], [[] for _ in module_reps], ctx, ORDER
            )


# ---------------------------------------------------------------------------
# property criteria


def test_criterion_09_oracle_equivalence():
    with criterion(
        9, "main algorithm agrees with the Groebner oracle (50 runs per order)"
    ):
        rng = random.Random(9)
        start = time.perf_counter()
        for order in (ORDER, TermOrder("deglex")):
            for _ in range(50):
                gens = random_finite_codim_gens(rng)
                om_main, g_main = module_border_basis(gens, order)
                om_naive, g_naive = naive_border_basis(gens, order)
                assert om_main == om_naive
                assert g_main == g_naive
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_10_characterization_agreement():
    with criterion(10, "Buchberger modes and commuting matrices agree (100 runs)"):
        rng = random.Random(10)
        passing = []
        for i in range(100):
            if i % 3 == 0:
                _, g = module_border_basis(random_finite_codim_gens(rng), ORDER)
                assert g.mu <= 12 and g.nu <= 12
            else:
                g = random_prebasis(rng, random_order_module(rng))
            neigh = buchberger_check(g, "neighbors_only")[0]
            allp = buchberger_check(g, "all_pairs")[0]
            comm = commuting_check(mult_matrices(g))[0]
            assert neigh == allp == comm
            if neigh:
                passing.append(g)
        assert passing
        module_term_sets = {id(g): set(g.om.module_terms) for g in passing}
        for n in range(200):
            g = passing[n % len(passing)]
            v = random_vector_in(rng, g.om)
            base = divide(g, v)
            shuffled = divide(g, v, choose=lambda cands: rng.choice(cands))
            assert shuffled.remainder_coords == base.remainder_coords
            nr = normal_remainder(g, v)
            assert set(nr.support()) <= module_term_sets[id(g)]
            acc = nr
            for q, gv in zip(base.quotients, g.vectors()):
                acc = acc + gv.mul_poly(q)
            assert acc == v


def test_criterion_11a_disjoint_borders():
    with criterion(11, "borders partition disjointly (500 random modules)"):
        rng = random.Random(111)
        for _ in range(500):
            om = random_order_module(rng)
            seen = set(om.module_terms)
            for k in (1, 2, 3):
                bk = om.border(k)
                assert not (bk & seen)
                seen |= bk


def test_criterion_11b_index_subadditivity():
    with criterion(11, "index subadditivity (500 random cases)"):
        rng = random.Random(112)
        pool = terms_up_to_degree(2, 3)
        for _ in range(500):
            om = random_order_module(rng)
            base = rng.choice(pool)
            k = rng.randint(1, 2)
            mult = rng.choice(pool)
            lhs = om.index((term_mul(mult, base), k))
            assert lhs <= term_deg(mult) + om.index((base, k))


def test_criterion_11c_computed_modules_divisor_closed():
    with criterion(11, "computed order modules are divisor-closed (500 runs)"):
        rng = random.Random(113)
        for _ in range(500):
            om, _ = module_border_basis(random_finite_codim_gens(rng), ORDER)
            terms = set(om.module_terms)
            for t, k in terms:
                for i in range(2):
                    if t[i] > 0:
                        d = tuple(e - 1 if j == i else e for j, e in enumerate(t))
                        assert (d, k) in terms


def test_criterion_11d_parse_print_round_trips():
    with criterion(11, "parse/print round-trips (500 random vectors)"):
        rng = random.Random(114)
        for _ in range(500):
            coeffs = {}
            for _ in range(rng.randrange(6)):
                t = (rng.randrange(5), rng.randrange(5))
                k = rng.randint(1, 3)
                coeffs[(t, k)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            v = Vector(2, 3, coeffs)
            assert parse_vector(format_vector(v, VARS, ORDER), VARS, 3) == v
