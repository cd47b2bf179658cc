"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and returns plain data, with no
modborder objects in it: a vector is a dict {(exponents, component):
Fraction} and a polynomial a dict {exponents: Fraction}.  The same seed gives
the same inputs, and `digest` fingerprints them for the self-test.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction


def monomials(nvars, max_deg):
    """All exponent tuples of total degree <= max_deg, lowest degree first."""
    out = []
    for d in range(max_deg + 1):
        out.extend(
            t
            for t in itertools.product(range(d + 1), repeat=nvars)
            if sum(t) == d
        )
    return out


def _nonzero(rng, bound):
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def dense_ideal(rng, nvars, degrees, bound=5):
    """Rank-1 generators, one per degree, with a nonzero coefficient on every
    monomial up to that degree.  n generic forms in n variables cut out a
    zero-dimensional ideal of codimension prod(degrees) (Bezout), and full
    supports keep the cost of an instance close to that of any other."""
    return [
        {(t, 1): Fraction(_nonzero(rng, bound)) for t in monomials(nvars, d)}
        for d in degrees
    ]


def _unimodular(rng, r):
    """An integer r x r matrix of determinant 1: lower times upper
    unitriangular, with nonzero entries off the diagonal."""
    low = [[1 if i == j else (_nonzero(rng, 2) if i > j else 0) for j in range(r)] for i in range(r)]
    up = [[1 if i == j else (_nonzero(rng, 2) if i < j else 0) for j in range(r)] for i in range(r)]
    return [[sum(low[i][k] * up[k][j] for k in range(r)) for j in range(r)] for i in range(r)]


def known_codim_module(rng, exps, bound=3):
    """Generators of a rank-r module of known codimension.

    Component k gets the generators x_i^a_ki + (every term of lower degree,
    with a nonzero coefficient), whose ideal has codimension prod_i a_ki
    because the leading forms x_i^a_ki have no common zero at infinity.
    Mixing the components by a unimodular integer matrix is an automorphism
    of P^r, so the codimension of the module stays mu = sum_k prod_i a_ki.
    Full supports and a mixing matrix without zeros give every seed the same
    staircase, which keeps the cost of an instance close to that of any
    other.  Returns (generators, mu).
    """
    nvars = len(exps[0])
    r = len(exps)
    plain = []
    for k, a in enumerate(exps, start=1):
        for i in range(nvars):
            lead = tuple(a[i] if j == i else 0 for j in range(nvars))
            vec = {(lead, k): Fraction(1)}
            for t in monomials(nvars, a[i] - 1):
                vec[(t, k)] = Fraction(_nonzero(rng, bound))
            plain.append(vec)
    mix = _unimodular(rng, r)
    gens = []
    for vec in plain:
        out = {}
        for (t, k), c in vec.items():
            for i in range(r):
                if mix[i][k - 1]:
                    out[(t, i + 1)] = out.get((t, i + 1), 0) + mix[i][k - 1] * c
        gens.append({mt: c for mt, c in out.items() if c})
    return gens, sum(math.prod(a) for a in exps)


def quotient_pair(rng, exps):
    """(U, S, mu): a known-codimension module split into generators of U and
    of S.  Two generators g_p leave U and S gets g_p + c*g_q for a g_q kept
    in U, so U + S is the whole module and mu is its codimension."""
    gens, mu = known_codim_module(rng, exps)
    picks = rng.sample(range(len(gens)), 2)
    sgens = []
    for p in picks:
        other = rng.choice([i for i in range(len(gens)) if i not in picks])
        c = rng.choice([-1, 1])
        comb = dict(gens[p])
        for mt, v in gens[other].items():
            comb[mt] = comb.get(mt, 0) + c * v
        sgens.append({mt: v for mt, v in comb.items() if v})
    ugens = [g for i, g in enumerate(gens) if i not in picks]
    return ugens, sgens, mu


def subideal_pair(rng, exps, nf=2):
    """(I, F): a zero-dimensional ideal I of known codimension in two
    variables and nf random affine linear polynomials generating J."""
    gens, _ = known_codim_module(rng, [exps])
    hgens = [{t: c for (t, _), c in v.items()} for v in gens]
    fgens = []
    for _ in range(nf):
        f = {(1, 0): Fraction(_nonzero(rng, 3)), (0, 1): Fraction(_nonzero(rng, 3))}
        c = rng.randint(-3, 3)
        if c:
            f[(0, 0)] = Fraction(c)
        fgens.append(f)
    return hgens, fgens


def perturb(rng, coeffs):
    """Copy of a prebasis coefficient matrix with one entry changed."""
    out = [row[:] for row in coeffs]
    i = rng.randrange(len(out))
    j = rng.randrange(len(out[0]))
    out[i][j] += _nonzero(rng, 2)
    return out


def probe_vector(rng, nvars, rank, deg, variant):
    """A vector of degree `deg` on a fixed pattern of monomials (three of
    degree deg, two of degree deg - 1, placed by `variant`) with random
    small rational coefficients.  Fixing the pattern keeps the division work
    per vector alike across seeds; the variant varies it within a run."""
    vec = {}
    for d, picks in ((deg, (0, 1, 2)), (deg - 1, (0, 1))):
        pool = [t for t in monomials(nvars, d) if sum(t) == d]
        for p in picks:
            t = pool[(variant + p * len(pool) // len(picks)) % len(pool)]
            k = 1 + (variant + p) % rank
            vec[(t, k)] = Fraction(_nonzero(rng, 3), rng.randint(1, 3))
    return vec


def digest(data):
    """Stable fingerprint of plain input data."""
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]
