"""Characterization machinery for border prebases.

Formal multiplication matrices (dense lists of rows over Q) and the
commuting criterion, SV-vectors, neighbors and their syzygies with liftings,
the Buchberger criterion, and border forms.  Indices are 0-based throughout;
printed output is 1-based.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .division import divide, normal_remainder
from .errors import PreconditionError
from .ring import Poly, Vector, term_lcm, term_mul, term_quot, unit_terms


def mult_matrices(g):
    """X_1..X_n, each a list of mu rows of `Fraction`s.  Column l of X_s
    encodes x_s * t_l e_{alpha_l}: a unit column when the product stays in
    M, else the coefficient column of its border term."""
    om = g.om
    mu = om.mu
    mats = []
    for xs in unit_terms(om.nvars):
        mat = [[Fraction(0)] * mu for _ in range(mu)]
        for l, (t, k) in enumerate(om.module_terms):
            prod = (term_mul(xs, t), k)
            if prod in om.module_pos:
                mat[om.module_pos[prod]][l] = Fraction(1)
            else:
                j = om.border_pos[prod]
                for i in range(mu):
                    mat[i][l] = g.coeffs[i][j]
        mats.append(mat)
    return mats


def commuting_check(mm):
    """Return (True, None) if the matrices pairwise commute, else
    (False, (s, u)) for the first non-commuting pair (0-based, s < u).

    Each X_s is scaled to an integer matrix by the lcm of its denominators;
    scalars commute, so the integer products decide the same question."""
    ints = [_integer_matrix(m) for m in mm]
    n = len(ints)
    for s in range(n):
        for u in range(s + 1, n):
            if _mat_mul(ints[s], ints[u]) != _mat_mul(ints[u], ints[s]):
                return False, (s, u)
    return True, None


def _integer_matrix(m):
    """L*m for a matrix of ints or Fractions, L the lcm of its
    denominators."""
    den = lcm(*{x.denominator for row in m for x in row})
    return [[x.numerator * (den // x.denominator) for x in row] for row in m]


def _mat_mul(a, b):
    """The product of two square matrices of one size, as lists of rows.
    Its entries have the type of the inputs' entries: ints or Fractions."""
    if not b:
        return []
    zero = b[0][0] * 0
    bsparse = [[(j, y) for j, y in enumerate(brow) if y] for brow in b]
    out = []
    for arow in a:
        orow = [zero] * len(b)
        for x, brow in zip(arow, bsparse):
            if x:
                for j, y in brow:
                    orow[j] += x * y
        out.append(orow)
    return out


def module_action(mm, g, p, coords):
    """Coordinates of p applied to the class with the given M-coordinates."""
    ok, pair = commuting_check(mm)
    if not ok:
        s, u = pair
        raise PreconditionError(
            "module action undefined: multiplication matrices "
            f"X{s + 1} and X{u + 1} do not commute"
        )
    mu = g.om.mu
    coords = [Fraction(c) for c in coords]
    out = [Fraction(0)] * mu
    for t, c in p.coeffs.items():
        w = coords
        for s, e in enumerate(t):
            for _ in range(e):
                w = _mat_vec(mm[s], w)
        for i in range(mu):
            out[i] += c * w[i]
    return out


def _mat_vec(m, v):
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def sv_vector(g, i, j):
    """SV(G_i, G_j) = (lcm/b_i) G_i - (lcm/b_j) G_j (components may differ),
    built in one coefficient dict."""
    bi, _ = g.om.border_terms[i]
    bj, _ = g.om.border_terms[j]
    lcm = term_lcm(bi, bj)
    qi, qj = term_quot(lcm, bi), term_quot(lcm, bj)
    gi, gj = g.vector(i), g.vector(j)
    out = {(term_mul(qi, t), k): c for (t, k), c in gi.coeffs.items()}
    # every coefficient of G_j is nonzero, so a difference that cancels had
    # its key in out
    for (t, k), c in gj.coeffs.items():
        mt = (term_mul(qj, t), k)
        d = out.get(mt, 0) - c
        if d:
            out[mt] = d
        else:
            del out[mt]
    return Vector(gi.nvars, gi.rank, out)


class NeighborPair:
    """A neighbor relation between border terms i and j (0-based positions).

    next_door:     x_s * b_i e = b_j e        (u is None)
    across_street: x_s * b_i e = x_u * b_j e  (i < j)
    """

    __slots__ = ("i", "j", "kind", "s", "u")

    def __init__(self, i, j, kind, s, u=None):
        self.i = i
        self.j = j
        self.kind = kind
        self.s = s
        self.u = u

    def __eq__(self, other):
        return isinstance(other, NeighborPair) and (
            self.i,
            self.j,
            self.kind,
            self.s,
            self.u,
        ) == (other.i, other.j, other.kind, other.s, other.u)

    def __repr__(self):
        return (
            f"NeighborPair({self.i}, {self.j}, {self.kind!r}, s={self.s}, "
            f"u={self.u})"
        )


def neighbors(om):
    """All neighbor pairs of the border, in canonical enumeration order."""
    out = []
    n = om.nvars
    units = unit_terms(n)
    bt = om.border_terms
    for a in range(len(bt)):
        ta, ka = bt[a]
        for b in range(a + 1, len(bt)):
            tb, kb = bt[b]
            if ka != kb:
                continue
            hit = None
            for s in range(n):
                if term_mul(units[s], ta) == tb:
                    hit = NeighborPair(a, b, "next_door", s)
                    break
                if term_mul(units[s], tb) == ta:
                    hit = NeighborPair(b, a, "next_door", s)
                    break
            if hit is None:
                for s in range(n):
                    for u in range(n):
                        if s != u and term_mul(units[s], ta) == term_mul(
                            units[u], tb
                        ):
                            hit = NeighborPair(a, b, "across_street", s, u)
                            break
                    if hit is not None:
                        break
            if hit is not None:
                out.append(hit)
    return out


def neighbor_syzygy(om, pair):
    """The fundamental syzygy of the border terms attached to a neighbor
    pair, as a nu-tuple of polynomials."""
    n = om.nvars
    nu = om.nu
    sy = [Poly.zero(n) for _ in range(nu)]
    if pair.kind == "next_door":
        sy[pair.i] = Poly.variable(n, pair.s)
        sy[pair.j] = sy[pair.j] - Poly.constant(n, 1)
    else:
        sy[pair.i] = Poly.variable(n, pair.s)
        sy[pair.j] = sy[pair.j] - Poly.variable(n, pair.u)
    return sy


def buchberger_check(g, mode="neighbors_only"):
    """Decide whether all required SV-vectors divide to normal remainder 0.

    mode 'all_pairs' scans every pair i < j; 'neighbors_only' scans neighbor
    pairs (sufficient by the Buchberger criterion).  Returns (True, None) or
    (False, (i, j, nr)) for the first failure in lexicographic (i, j) order,
    0-based.
    """
    if mode not in ("all_pairs", "neighbors_only"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "all_pairs":
        pairs = [
            (i, j) for i in range(g.nu) for j in range(i + 1, g.nu)
        ]
    else:
        pairs = sorted(
            {(min(p.i, p.j), max(p.i, p.j)) for p in neighbors(g.om)}
        )
    for i, j in pairs:
        nr = normal_remainder(g, sv_vector(g, i, j))
        if not nr.is_zero():
            return False, (i, j, nr)
    return True, None


def is_border_basis(g):
    """The decision procedure: Buchberger on neighbor pairs."""
    return buchberger_check(g, "neighbors_only")


def border_form(om, v):
    """The sum of the maximal-index monomials of v."""
    if v.is_zero():
        raise PreconditionError("border form of the zero vector is undefined")
    ind = om.index_vec(v)
    return Vector(
        v.nvars,
        v.rank,
        {mt: c for mt, c in v.coeffs.items() if om.index(mt) == ind},
    )


def lift_neighbor_syzygy(g, pair):
    """Lift a neighbor syzygy to a syzygy of (G_1..G_nu).

    Divides the pair's SV-vector; a nonzero normal remainder means no lifting
    exists (the prebasis is not a basis) and is an error.  Returns the
    nu-tuple P with P = sigma - (division quotients).
    """
    om = g.om
    sy = neighbor_syzygy(om, pair)
    sv = sv_vector(g, pair.i, pair.j)
    if sv.is_zero():
        return sy
    res = divide(g, sv)
    if any(res.remainder_coords):
        raise PreconditionError(
            f"no lifting: SV of pair ({pair.i + 1},{pair.j + 1}) has a "
            "nonzero normal remainder"
        )
    return [a - b for a, b in zip(sy, res.quotients)]
