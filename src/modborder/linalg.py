"""Dense exact-rational matrices and the linear algebra behind the main algorithm."""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .ordermodule import OrderIdeal, OrderModule
from .ring import Vector, term_deg, terms_up_to_degree


class RatMatrix:
    """A dense matrix over Q, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix data does not match dimensions")
            self.data = [[Fraction(x) for x in row] for row in data]

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = RatMatrix(self.rows, other.cols)
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k, a in enumerate(arow):
                if a:
                    brow = other.data[k]
                    for j in range(other.cols):
                        if brow[j]:
                            orow[j] += a * brow[j]
        return out

    def rref(self):
        """Return (reduced row echelon form, ascending pivot column list)."""
        m = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            pr = None
            for i in range(r, self.rows):
                if m[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            inv = Fraction(1) / m[r][c]
            if inv != 1:
                m[r] = [x * inv for x in m[r]]
            prow = m[r]
            for i in range(self.rows):
                f = m[i][c]
                if i != r and f:
                    m[i] = [a - f * b for a, b in zip(m[i], prow)]
            pivots.append(c)
            r += 1
        return RatMatrix(self.rows, self.cols, m), pivots

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"


def _coordinate_rows(vectors, universe):
    pos = {mt: c for c, mt in enumerate(universe)}
    rows = []
    for v in vectors:
        row = [Fraction(0)] * len(universe)
        for mt, cf in v.coeffs.items():
            if mt not in pos:
                t, k = mt
                raise PreconditionError(
                    f"vector term (exponents {t}, component {k}) lies outside "
                    "the coordinate universe"
                )
            row[pos[mt]] = cf
        rows.append(row)
    return rows


def _row_to_vector(row, universe, nvars, rank):
    return Vector(
        nvars, rank, {universe[c]: x for c, x in enumerate(row) if x}
    )


def span_basis(vectors, universe):
    """RREF basis of the K-span of `vectors`, in coordinates over `universe`."""
    vectors = list(vectors)
    if not vectors:
        return []
    nvars, rank = vectors[0].nvars, vectors[0].rank
    mat = RatMatrix.from_rows(_coordinate_rows(vectors, universe), len(universe))
    red, pivots = mat.rref()
    return [
        _row_to_vector(red.data[i], universe, nvars, rank)
        for i in range(len(pivots))
    ]


def intersect_with_coordinate_space(vectors, keep, order):
    """Basis of span(vectors) ∩ span_K(keep).

    Coordinates are ordered with the non-keep terms first, so after row
    reduction the rows whose pivot falls inside the keep block are supported
    on keep only and span exactly the intersection.
    """
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return []
    nvars, rank = vectors[0].nvars, vectors[0].rank
    seen = set()
    for v in vectors:
        seen.update(v.support())
    outside = sorted(
        (mt for mt in seen if mt not in keep), key=order.mod_key, reverse=True
    )
    inside = sorted(
        (mt for mt in seen if mt in keep), key=order.mod_key, reverse=True
    )
    universe = outside + inside
    mat = RatMatrix.from_rows(_coordinate_rows(vectors, universe), len(universe))
    red, pivots = mat.rref()
    cut = len(outside)
    return [
        _row_to_vector(red.data[i], universe, nvars, rank)
        for i, c in enumerate(pivots)
        if c >= cut
    ]


def degree_universe(nvars, rank, d, order):
    """All module terms of degree <= d, sorted sigma-Pos descending."""
    terms = terms_up_to_degree(nvars, d)
    universe = [(t, k) for k in range(1, rank + 1) for t in terms]
    universe.sort(key=order.mod_key, reverse=True)
    return universe


def _check_gens(d, gens):
    if not gens:
        raise PreconditionError("no generators given")
    nvars, rank = gens[0].nvars, gens[0].rank
    for v in gens:
        if v.is_zero():
            raise PreconditionError("zero generator")
        if v.nvars != nvars or v.rank != rank:
            raise PreconditionError("generators live in different modules")
        if v.degree() > d:
            raise PreconditionError(
                f"generator of degree {v.degree()} exceeds the universe "
                f"degree {d}"
            )
    return nvars, rank


def _order_module_data(d, gens, order):
    """RREF of the generators over the full degree-d universe, and the order
    module read off its pivot-free columns."""
    nvars, rank = _check_gens(d, gens)
    universe = degree_universe(nvars, rank, d, order)
    mat = RatMatrix.from_rows(_coordinate_rows(gens, universe), len(universe))
    red, pivots = mat.rref()
    pivot_set = set(pivots)
    ideals = []
    for k in range(1, rank + 1):
        terms = [
            universe[c][0]
            for c in range(len(universe))
            if c not in pivot_set and universe[c][1] == k
        ]
        try:
            ideals.append(OrderIdeal(nvars, terms))
        except PreconditionError as e:
            raise PreconditionError(
                f"stability precondition violated in component {k}: {e}"
            ) from e
    om = OrderModule(ideals, order, nvars=nvars)
    return om, red, pivots, universe


def compute_order_module(d, gens, order):
    """The order module whose residues form a basis of <L>_K / span(gens),
    where L is the full module-term universe of degree <= d.

    The span must already be stable under multiplication intersected with
    <L>_K (the caller guarantees this); a violated precondition surfaces as a
    non-divisor-closed result, which is rejected with a witness.
    """
    om, _, _, _ = _order_module_data(d, gens, order)
    return om
