"""Shared fixtures: the worked examples used throughout the test suite.

All fixtures live over P = Q[x, y] with the degrevlex module order.  The
running examples are

* ``order7`` / ``prebasis7``: the order module
  M = {x e1, y e1, e1, x^2 e2, x e2, e2} together with a seven-element
  prebasis that is *not* a border basis (its Buchberger check fails),
* ``mbba_gens``: five generators of a submodule U of Q[x,y]^2 whose border
  basis has the order module {e1, e2},
* ``basis4``: that border basis, given directly by its four vectors,
* quotient data (the fifth MBBA generator spans S) and subideal data
  (I = <x^2 + x*y, y - 1>, F = (x - y, x + y + 1)).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from modborder import (
    Prebasis,
    TermOrder,
    Vector,
    module_border_basis,
    reconstruct_prebasis,
)
from modborder.ring import term_deg, terms_up_to_degree
from modborder.textio import parse_poly, parse_vector

VARS = ["x", "y"]

MBBA_GENS = [
    "-2*e1 + (3*x - 1)*e2",
    "(3*x + 4)*e1 + 2*e2",
    "(y - 1)*e2",
    "(y - 1)*e1",
    "(x + y + 1)*e1 + (-x + y)*e2",
]

PREBASIS7 = [
    "x^2*e1 - y*e1 + e2",
    "x*y*e1 - e2",
    "y^2*e1 - x*e2",
    "x^3*e2 - e1",
    "x^2*y*e2 - e1 - e2",
    "x*y*e2 + 3*e1",
    "y*e2 - x*e1 - y*e1 - e1 - e2",
]

BASIS4 = [
    "x*e1 + 4/3*e1 + 2/3*e2",
    "y*e1 - e1",
    "x*e2 - 2/3*e1 - 1/3*e2",
    "y*e2 - e2",
]

SUBIDEAL_I = ["x^2 + x*y", "y - 1"]
SUBIDEAL_F = ["x - y", "x + y + 1"]


def vec(text):
    """A rank-2 vector over Q[x, y] from its text form."""
    return parse_vector(text, VARS, 2)


def pol(text):
    """A polynomial over Q[x, y] from its text form."""
    return parse_poly(text, VARS)


@pytest.fixture(scope="session")
def order():
    return TermOrder("degrevlex")


@pytest.fixture(scope="session")
def varnames():
    return VARS


@pytest.fixture(scope="session")
def mbba_gens():
    return [vec(s) for s in MBBA_GENS]


@pytest.fixture(scope="session")
def prebasis7(order):
    return reconstruct_prebasis([vec(s) for s in PREBASIS7], order)


@pytest.fixture(scope="session")
def basis4(order):
    return reconstruct_prebasis([vec(s) for s in BASIS4], order)


@pytest.fixture(scope="session")
def subideal_data():
    return [pol(s) for s in SUBIDEAL_I], [pol(s) for s in SUBIDEAL_F]


def problem_text(body):
    return "ring Q[x,y]\nrank 2\norder degrevlex\n" + body


MBBA_FILE = problem_text("vectors:\n" + "\n".join(MBBA_GENS) + "\n")
PREBASIS7_FILE = problem_text("vectors:\n" + "\n".join(PREBASIS7) + "\n")
BASIS4_FILE = problem_text("vectors:\n" + "\n".join(BASIS4) + "\n")
QUOT_FILE = problem_text(
    "vectors:\n"
    + "\n".join(MBBA_GENS[:4])
    + "\nsyzygy:\n"
    + MBBA_GENS[4]
    + "\n"
)
SUB_FILE = problem_text(
    "ideal:\n"
    + "\n".join(SUBIDEAL_I)
    + "\nsubideal:\n"
    + "\n".join(SUBIDEAL_F)
    + "\n"
)


@pytest.fixture()
def write_case(tmp_path):
    """Factory dropping a problem file into tmp_path and returning its path."""

    def write(text, name="case.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# ---------------------------------------------------------------------------
# random prebases with denominators, for differential tests


def random_fraction(rng):
    """A nonzero rational with denominator up to 9 and, one time in four, a
    numerator of about 10^12."""
    big = 10**12 if rng.randrange(4) == 0 else 5
    sign = rng.choice([-1, 1])
    return Fraction(sign * rng.randint(1, big), rng.randint(1, 9))


@st.composite
def random_prebases(draw):
    """(prebasis, is_basis): the border basis of a module of
    known codimension with rational coefficients, or that basis with one
    coefficient changed (then, as a rule, not a basis), for n <= 3 and
    rank <= 3.

    Component k is generated by c*x_i^a_ki plus up to three random terms of
    lower degree, all with coefficients from `random_fraction`; each
    component k > 1 is then added, times a random integer, to e1, an
    automorphism of P^r.  A leading coefficient of about 10^12 puts a
    denominator of that size into the basis."""
    nvars = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    top = 3 if nvars * rank < 6 and nvars < 3 else 2
    exps = [
        tuple(draw(st.integers(1, top)) for _ in range(nvars))
        for _ in range(rank)
    ]
    order = TermOrder(draw(st.sampled_from(["degrevlex", "deglex", "lex"])))
    perturb = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    gens = []
    for k, a in enumerate(exps, start=1):
        mix = rng.randint(-2, 2)
        for i in range(nvars):
            lead = tuple(a[i] if j == i else 0 for j in range(nvars))
            poly = {lead: random_fraction(rng)}
            pool = terms_up_to_degree(nvars, a[i] - 1)
            for t in rng.sample(pool, min(3, len(pool))):
                poly[t] = random_fraction(rng)
            coeffs = {(t, k): x for t, x in poly.items()}
            if k > 1 and mix:
                coeffs.update({(t, 1): mix * x for t, x in poly.items()})
            gens.append(Vector(nvars, rank, coeffs))
    om, g = module_border_basis(gens, order)
    if perturb:
        coeffs = [list(row) for row in g.coeffs]
        i, j = rng.randrange(om.mu), rng.randrange(om.nu)
        coeffs[i][j] += random_fraction(rng)
        g = Prebasis(om, coeffs)
    return g, not perturb


def random_vectors(rng, om, count):
    """`count` random vectors with up to six terms of degree up to two above
    the border and coefficients from `random_fraction`."""
    top = max(term_deg(t) for t, _ in om.border_terms) + 2
    pool = terms_up_to_degree(om.nvars, top)
    out = []
    for _ in range(count):
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            mt = (rng.choice(pool), rng.randint(1, om.rank))
            coeffs[mt] = random_fraction(rng)
        out.append(Vector(om.nvars, om.rank, coeffs))
    return out
