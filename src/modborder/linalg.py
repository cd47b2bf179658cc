"""The sparse echelon form behind the main algorithm.

The elimination is fraction-free: its rows are primitive integer
coefficient dicts, and `Fraction`s are built only for its output, one per
coefficient, by dividing each row by its pivot coefficient (`_monic`)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .ring import term_deg


def _degree_key(order):
    """Sort key for module terms: degree first, then the sigma-Pos key.

    The main algorithm works on degree-truncated universes, which needs a
    degree-compatible elimination order; for degrevlex and deglex this is
    the sigma-Pos order itself, for lex its refinement by degree.
    """
    key = order.key
    return lambda mt: (term_deg(mt[0]), key(mt[0]), -mt[1])


def _reduce_into(basis, rows, key):
    """Insert the integer coefficient dicts `rows` into the echelon basis
    `basis` (pivot -> row), in place.

    Each row of `basis` is a primitive integer dict (its coefficients have
    gcd 1) whose pivot, its `key`-largest term, has a positive coefficient,
    and no other row contains that pivot; `_monic` turns the rows into the
    reduced echelon basis over Q, which is unique.  Elimination is
    fraction-free: clearing a term scales both rows by integers (see
    `_eliminate`), and every row it changes is divided by its content.

    A pivot, once in `basis`, stays: inserting a row only clears its pivot
    from the other rows, and each row's pivot is larger than every other
    term of it.
    """
    for coeffs in rows:
        r = dict(coeffs)
        # the basis rows hold no pivot but their own, so clearing one only
        # rescales the coefficients of the other pivots
        for p in [mt for mt in r if mt in basis]:
            _eliminate(r, p, basis[p])
        if not r:
            continue
        piv = max(r, key=key)
        r = _primitive(r, piv)
        for q, row in basis.items():
            if piv in row:
                _eliminate(row, piv, r)
                basis[q] = _primitive(row, q)
        basis[piv] = r


def _eliminate(r, p, row):
    """Clear the term p of the integer dict r with `row`, whose pivot p has
    a positive coefficient: r <- (row[p]/g) r - (r[p]/g) row, in place,
    with g = gcd(row[p], r[p]), dropping the terms that cancel."""
    a, b = row[p], r[p]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for mt in r:
            r[mt] *= a
    # b and every coefficient of row are nonzero, so a sum that cancels
    # had its key in r
    for mt, c in row.items():
        s = r.get(mt, 0) - b * c
        if s:
            r[mt] = s
        else:
            del r[mt]


def _primitive(r, piv):
    """The integer dict r divided by its content, signed so that the
    coefficient of piv is positive."""
    g = gcd(*r.values())
    if r[piv] < 0:
        g = -g
    if g == 1:
        return r
    return {mt: c // g for mt, c in r.items()}


def _integral(coeffs):
    """The rational coefficient dict `coeffs` times the lcm of its
    denominators, with integer coefficients."""
    # a set, not a generator: CPython 3.11 builds the argument tuple of
    # *generator by resizing, and the tuples it frees pile up in the per-size
    # tuple free lists (up to 2000 of each size, megabytes in all)
    m = lcm(*{c.denominator for c in coeffs.values()})
    return {mt: c.numerator * (m // c.denominator) for mt, c in coeffs.items()}


def _monic(row, piv):
    """The integer row divided by its coefficient at piv, over Q."""
    lc = row[piv]
    return {mt: Fraction(c, lc) for mt, c in row.items()}
