"""Subideal border bases through the isomorphism P^r/Syz(f_1..f_r) ≅ <f_1..f_r>."""

from __future__ import annotations

from fractions import Fraction

from .borderbasis import module_border_basis
from .division import Prebasis
from .errors import PreconditionError
from .groebner import (
    _lead,
    _normal_form,
    _normal_set,
    gb_normal_form,
    groebner_basis,
    leading_module,
    syzygies,
)
from .linalg import _eliminate, _integral, _primitive, _reduce_into
from .quotient import QuotPrebasis, QuotientContext, check_quotient_basis
from .ring import (
    TermOrder,
    Vector,
    pure_power_bounds,
    term_deg,
    term_divides,
    term_one,
    term_pred,
)


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

    A subideal border basis is the border basis of the module
    U = {v in P^r : sum v_k f_k in I} read through phi, so the work is to
    find generators of U, by linear algebra over the reduced degrevlex
    Groebner basis of I.  U contains I*P^r, and U/I*P^r is the kernel of
    the K-linear map (P/I)^r -> P/I that sends t*e_k to NF(t*f_k), for t
    in the normal set O_I.  The normal forms are built by degree:
    NF(x_i*t'*f_k) is x_i*NF(t'*f_k) with each product term outside O_I, a
    border term of O_I, replaced by its normal form, which is computed
    once.  The rows (image | tag t*e_k) go into one echelon form, image
    columns above tags, and a row whose image reduces to zero is a kernel
    vector with its tag as pivot (see `_kernel_generators`).  U does not
    depend on the order used for I, and the degrevlex basis is the
    cheapest, with the lowest normal set; the main algorithm runs in
    `order`.

    The main algorithm then runs on {h_j*e_k} and on the kernel vectors
    whose pivot is minimal: no other kernel pivot of its component divides
    it.  A kernel vector whose pivot t*e_k is a multiple u*s*e_k of another
    pivot is, modulo I*P^r, u times the vector of s*e_k plus vectors of
    smaller pivots, so the minimal ones and I*P^r generate U; the others
    would only make the main algorithm start at a higher degree.  U
    contains Syz(F), so the terms of M are independent modulo Syz(F) and no
    residue classes are needed.

    The main algorithm takes no generator past the degree cap.  Modulo
    I*P^r, an element of U up to the cap is a kernel vector over the tags
    t*e_k with deg t <= `max_degree`, and I*P^r up to the cap is generated
    by the elements of the Groebner basis up to the cap.  So only those
    tags are used, and when some h_j has a degree above the cap, those
    elements of the Groebner basis stand in for the h_j.  The module U'
    they generate holds every element of U up to the cap.  If the main
    algorithm finds a border basis of U' within the cap, every element of
    U is, modulo U', a combination of terms of M', of degree at most the
    cap, that lies in U and hence in U'; so U' = U.  If it does not, U has
    no generators within the cap either, and the cap error stands.

    Returns (FOrderIdeal, basis vectors as formal combinations); expand with
    the context under oF.ctx.
    """
    hgens = list(hgens)
    if not hgens:
        raise PreconditionError("no generators for the ideal I")
    for h in hgens:
        if h.is_zero():
            raise PreconditionError("zero generator for the ideal I")
    grevlex = TermOrder("degrevlex")
    zero_dim, gb = _zero_dimensional(hgens, grevlex)
    if not zero_dim:
        raise PreconditionError(
            "the ideal I is not zero-dimensional (no pure power of some "
            "variable among its leading terms)"
        )
    ctx = SubidealContext(fgens, order)
    nvars, rank = hgens[0].nvars, ctx.rank
    gens = [
        Vector(nvars, rank, row)
        for row in _kernel_generators(gb, ctx.f, grevlex, max_degree)
    ]
    if max(h.degree() for h in hgens) <= max_degree:
        ideal = [h.coeffs for h in hgens]
    else:
        ideal = [
            {t: c for (t, _), c in g.coeffs.items()}
            for g in gb
            if g.degree() <= max_degree
        ]
    gens += [
        Vector(nvars, rank, {(t, k): c for t, c in h.items()})
        for h in ideal
        for k in range(1, rank + 1)
    ]
    if not gens:
        raise PreconditionError(
            f"codimension possibly infinite (cap {max_degree} reached)"
        )
    om, g = module_border_basis(gens, order, max_degree=max_degree)
    return FOrderIdeal(ctx, om), g.vectors()


def _kernel_generators(gb, fgens, order, max_degree):
    """The kernel vectors of (P/I)^r -> P/I over the tags t*e_k with
    deg t <= `max_degree` whose pivot is minimal (see
    `subideal_border_basis`), as primitive integer coefficient dicts, for
    the reduced Groebner basis gb of I in the degree-compatible `order`.

    The row of t*e_k is its image, over the columns (s, 0) for s in the
    normal set, and its tag (t, k), scaled to integers.  The images have
    degree at most `max_degree` + max deg f_k, and their products by a
    variable one more, so the normal set is enumerated up to that degree,
    with its border.  The rows go into one echelon form, image columns
    above tags, in increasing order of their tags, so a row whose image
    reduces to zero has its own tag as pivot.  A tag that is a multiple of
    a kernel pivot found before it is itself a kernel pivot, and its row
    lies in the span of the rows before it; it is skipped, so every kernel
    pivot found is minimal.
    """
    lead = [_lead(g, order) for g in gb]
    nvars = fgens[0].nvars
    lts = [lmt[0] for lmt, _, _ in lead]
    top = max_degree + max(f.degree() for f in fgens)
    normal, border, _ = _normal_set(lts, nvars, top)
    border_rows = _border_rows(lead, border, order)
    mod_key = order.mod_key
    tags = sorted(
        (
            (t, k)
            for t in normal
            if term_deg(t) <= max_degree
            for k in range(1, len(fgens) + 1)
        ),
        key=mod_key,
    )

    def key(mt):
        # image columns (s, 0) above the tags (t, k), k >= 1
        return (mt[1] == 0, mod_key(mt))

    rows = {}
    echelon = {}
    pivots = []
    for t, k in tags:
        if any(q == k and term_divides(s, t) for s, q in pivots):
            continue
        if any(t):
            # x_i times the row of t/x_i, with the border terms rewritten
            i = next(i for i, e in enumerate(t) if e)
            row = _shift(rows[(term_pred(t, i), k)], i)
            _rewrite_border(row, border_rows)
            row = _primitive(row, (t, k))
        else:
            nf = _normal_form(
                lead,
                {(s, 1): c for s, c in fgens[k - 1].coeffs.items()},
                order,
            )
            row = {(s, 0): c for (s, _), c in nf.items()}
            row[(t, k)] = Fraction(1)
            row = _integral(row)
        rows[(t, k)] = row
        _reduce_into(echelon, [row], key)
        if (t, k) in echelon:
            pivots.append((t, k))
    return [echelon[p] for p in pivots]


def _shift(row, i):
    """The row times x_i: every term of every column moves up in x_i."""
    return {
        (s[:i] + (s[i] + 1,) + s[i + 1 :], q): c for (s, q), c in row.items()
    }


def _rewrite_border(row, border_rows):
    """Clear from the integer row, in place, its image columns (u, 0) at
    the border terms u in `border_rows`, with their rows u - NF(u)."""
    for mt in [mt for mt in row if mt[1] == 0 and mt[0] in border_rows]:
        _eliminate(row, mt, border_rows[mt[0]])


def _border_rows(lead, border, order):
    """For each term u of the border of the normal set, u - NF(u) as a
    primitive integer row over the image columns (s, 0).

    A border term that leads an element g of the reduced Groebner basis
    has NF(u) = u - g/lc(g).  Any other one is x_j*u' for a border term
    u' < u, and its row is x_j times the row of u' with the border terms
    rewritten; those are smaller than u too, so the rows are built in
    increasing order.
    """
    leading = {lmt[0]: coeffs for lmt, _, coeffs in lead}
    rows = {}
    for u in sorted(border, key=order.key):
        coeffs = leading.get(u)
        if coeffs is not None:
            row = _integral({(s, 0): c for (s, _), c in coeffs.items()})
        else:
            j = next(
                j for j, e in enumerate(u) if e and term_pred(u, j) in rows
            )
            row = _shift(rows[term_pred(u, j)], j)
            _rewrite_border(row, rows)
        rows[u] = _primitive(row, (u, 0))
    return rows


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
