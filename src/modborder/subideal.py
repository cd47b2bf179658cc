"""Subideal border bases through the isomorphism P^r/Syz(f_1..f_r) ≅ <f_1..f_r>."""

from __future__ import annotations

from .borderbasis import module_border_basis
from .division import Prebasis
from .errors import PreconditionError
from .groebner import (
    gb_normal_form,
    groebner_basis,
    ideal_intersection,
    leading_module,
    syzygies,
)
from .quotient import QuotPrebasis, QuotientContext, check_quotient_basis
from .ring import Vector, pure_power_bounds, term_one


class SubidealContext:
    """The generators F of J, their syzygy module S, and the map phi."""

    __slots__ = ("f", "order", "syz", "qctx")

    def __init__(self, fgens, order):
        fgens = list(fgens)
        if not fgens:
            raise PreconditionError("no generators for the subideal J")
        for p in fgens:
            if p.is_zero():
                raise PreconditionError("zero generator for the subideal J")
        self.f = fgens
        self.order = order
        self.syz = syzygies(fgens, order)
        self.qctx = QuotientContext(self.syz, order)

    @property
    def rank(self):
        return len(self.f)

    def expand_in_P(self, vec):
        """phi: send a formal combination (p_1..p_r) to sum p_k f_k in P."""
        if vec.rank != self.rank:
            raise PreconditionError(
                f"formal combination has rank {vec.rank}, expected {self.rank}"
            )
        out = None
        for k in range(1, self.rank + 1):
            part = vec.component(k) * self.f[k - 1]
            out = part if out is None else out + part
        return out

    def same_element(self, v, w):
        """Equality of the J-elements represented by two formal combinations."""
        return self.qctx.same_class(v, w)


class FOrderIdeal:
    """An F-order ideal O_F = O_1*f_1 u ... u O_r*f_r, carried by the order
    module of its exponent data."""

    __slots__ = ("ctx", "om")

    def __init__(self, ctx, om):
        self.ctx = ctx
        self.om = om

    def formal_terms(self):
        """The elements t*f_k as (term, component) pairs."""
        return list(self.om.module_terms)

    def expanded(self):
        """The elements t*f_k as polynomials."""
        out = []
        for t, k in self.om.module_terms:
            out.append(
                self.ctx.f[k - 1].mul_term(t)
            )
        return out


def _zero_dimensional(hgens, order):
    hvecs = [Vector.from_polys([h]) for h in hgens]
    gb = groebner_basis(hvecs, order)
    if not gb:
        return False, gb
    nvars = hgens[0].nvars
    lts = [t for t, _ in leading_module(gb, order)]
    if any(t == term_one(nvars) for t in lts):
        return True, gb
    return None not in pure_power_bounds(lts, nvars), gb


def subideal_border_basis(hgens, fgens, order, max_degree=32):
    """The O_F-subideal border basis of I inside J = <fgens>.

    Lifts I ∩ J to vectors B_w = sum q_vw e_v, runs the main algorithm on
    them and the syzygies of F, and reads the result through phi.  The terms
    of M are independent modulo U ⊇ Syz(F), so no residue classes are needed.
    Returns (FOrderIdeal, basis vectors as formal combinations); expand with
    the context under oF.ctx.
    """
    hgens = list(hgens)
    if not hgens:
        raise PreconditionError("no generators for the ideal I")
    for h in hgens:
        if h.is_zero():
            raise PreconditionError("zero generator for the ideal I")
    zero_dim, _ = _zero_dimensional(hgens, order)
    if not zero_dim:
        raise PreconditionError(
            "the ideal I is not zero-dimensional (no pure power of some "
            "variable among its leading terms)"
        )
    ctx = SubidealContext(fgens, order)
    qtuples = ideal_intersection(hgens, fgens, order)
    bvecs = [Vector.from_polys(q) for q in qtuples]
    bvecs = [v for v in bvecs if not v.is_zero()]
    om, g = module_border_basis(bvecs + ctx.syz, order, max_degree=max_degree)
    return FOrderIdeal(ctx, om), g.vectors()


def check_subideal_basis(ctx, oF, gvecs, hgens):
    """Verify a claimed subideal border basis: the pulled-back quotient data
    must pass check_quotient_basis and every expanded element must lie in I.

    Returns (True, None) or (False, diagnostic)."""
    pb = Prebasis.from_vectors(oF.om, gvecs)
    qp = QuotPrebasis(ctx.qctx, pb)
    ok, diag = check_quotient_basis(qp)
    if not ok:
        return False, diag
    gb_i = groebner_basis([Vector.from_polys([h]) for h in hgens], ctx.order)
    for j, v in enumerate(pb.vectors()):
        p = ctx.expand_in_P(v)
        if p.is_zero():
            continue
        nf = gb_normal_form(gb_i, Vector.from_polys([p]), ctx.order)
        if not nf.is_zero():
            return False, ("membership", j, nf)
    return True, None
