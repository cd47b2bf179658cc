"""The main algorithm: border bases of finite-codimension submodules."""

from __future__ import annotations

from .division import Prebasis
from .errors import PreconditionError
from .linalg import degree_universe, intersect_with_coordinate_space, span_basis
from .ordermodule import OrderIdeal, OrderModule
from .ring import term_deg


def module_border_basis(gens, order, rank=None, max_degree=32):
    """Compute (M, G): the order module and border basis of U = <gens>.

    Seeds V with the K-span of the generators, stabilizes V under
    multiplication by the variables intersected with the span of all module
    terms of degree <= d, reads M off the universe terms that are not pivots
    of the stabilized reduced echelon form, and grows d until the border fits
    inside the universe; the basis vectors are then the echelon rows pivoted
    at the border terms.  Elimination runs degree first (see
    `degree_universe`), so under lex M is the complement of the leading
    terms under lex refined by degree.

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
    units = [
        tuple(1 if i == s else 0 for i in range(nvars)) for s in range(nvars)
    ]
    basis = gens
    while True:
        universe = degree_universe(nvars, rank, d, order)
        keep = set(universe)
        basis = span_basis(basis, universe)
        while True:
            prods = list(basis)
            for v in basis:
                for xs in units:
                    prods.append(v.mul_term(xs))
            grown = intersect_with_coordinate_space(prods, keep, order)
            stable = len(grown) == len(basis)
            basis = grown
            if stable:
                break
        # a row's pivot is its largest term: its first one in the universe
        pos = {mt: c for c, mt in enumerate(universe)}
        rows = {min(v.support(), key=pos.__getitem__): v for v in basis}
        ideals = []
        for k in range(1, rank + 1):
            terms = [t for t, kk in universe if kk == k and (t, kk) not in rows]
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
            vectors = [rows[bmt] for bmt in om.border_terms]
            return om, Prebasis.from_vectors(om, vectors)
        d += 1
        if d > max_degree:
            raise PreconditionError(
                f"codimension possibly infinite (cap {max_degree} reached)"
            )
