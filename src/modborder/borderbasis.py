"""The main algorithm: border bases of finite-codimension submodules."""

from __future__ import annotations

from .division import Prebasis
from .errors import PreconditionError
from .linalg import _degree_key, _integral, _monic, _reduce_into
from .ordermodule import OrderIdeal, OrderModule
from .ring import Vector, term_deg, term_mul, terms_up_to_degree, unit_terms


def module_border_basis(gens, order, rank=None, max_degree=32):
    """Compute (M, G): the order module and border basis of U = <gens>.

    Keeps one reduced echelon form of the span V of the generators and the
    products made so far, with the terms ordered degree first (see
    `linalg._degree_key`), so its rows pivoted at degree <= d are the reduced
    echelon basis of V ∩ span{module terms of degree <= d}.  Each round
    multiplies by the variables only the rows of degree <= d that were not
    multiplied before, and inserts the products into the same echelon form.
    When no such row is left, M is read off the terms of degree <= d that
    are not pivots.  If the border of M fits inside degree d, the basis
    vectors are the rows pivoted at the border terms; otherwise d grows and
    the echelon form is carried on, so no row is multiplied twice.  Under
    lex, M is the complement of the leading terms under lex refined by
    degree.

    The elimination is fraction-free (see `linalg._reduce_into`): the
    generators are scaled to integer rows once, on entry, their products by
    the variables stay integer, and each row is kept primitive with a
    positive pivot coefficient.  Only the basis vectors are built over Q,
    each border row divided by its pivot coefficient.

    U must have finite K-codimension in P^r; the degree cap guards against
    inputs where it does not.
    """
    gens = list(gens)
    if rank is None:
        if not gens:
            raise PreconditionError(
                "cannot infer the rank from an empty generator list"
            )
        rank = gens[0].rank
    if rank == 0:
        if gens:
            raise PreconditionError("rank-0 module admits no generators")
        om = OrderModule([], order, nvars=0)
        return om, Prebasis(om, [])
    if not gens:
        raise PreconditionError(
            f"no generators for rank {rank} (P^r itself has infinite "
            "codimension over its zero submodule)"
        )
    nvars = gens[0].nvars
    for v in gens:
        if v.is_zero():
            raise PreconditionError("zero generator")
        if v.rank != rank or v.nvars != nvars:
            raise PreconditionError("generators live in different modules")
    d = max(v.degree() for v in gens)
    if d > max_degree:
        raise PreconditionError(
            f"codimension possibly infinite (cap {max_degree} reached)"
        )
    units = unit_terms(nvars)
    key = _degree_key(order)
    # pivot -> primitive integer row; a row's terms have at most its
    # pivot's degree
    echelon = {}
    _reduce_into(echelon, (_integral(v.coeffs) for v in gens), key)
    multiplied = set()
    while True:
        while True:
            new = [
                p for p in echelon
                if p not in multiplied and term_deg(p[0]) <= d
            ]
            if not new:
                break
            multiplied.update(new)
            prods = [
                {(term_mul(xs, t), k): c for (t, k), c in echelon[p].items()}
                for p in new
                for xs in units
            ]
            _reduce_into(echelon, prods, key)
        ideals = []
        for k in range(1, rank + 1):
            terms = [
                t for t in terms_up_to_degree(nvars, d)
                if (t, k) not in echelon
            ]
            try:
                ideals.append(OrderIdeal(nvars, terms))
            except PreconditionError as e:
                raise PreconditionError(
                    f"stability precondition violated in component {k}: {e}"
                ) from e
        om = OrderModule(ideals, order, nvars=nvars)
        border_deg = max(
            (term_deg(b) for b, _ in om.border_terms), default=0
        )
        if border_deg <= d:
            vectors = [
                Vector(nvars, rank, _monic(echelon[bmt], bmt))
                for bmt in om.border_terms
            ]
            return om, Prebasis.from_vectors(om, vectors)
        d += 1
        if d > max_degree:
            raise PreconditionError(
                f"codimension possibly infinite (cap {max_degree} reached)"
            )
