"""Buchberger engine for submodules of Q[x1..xn]^r and oracles built on it:
reduced Groebner bases, normal forms, Macaulay complements, the naive
border-basis construction, syzygies and ideal intersection."""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction

from .division import Prebasis
from .errors import PreconditionError
from .ordermodule import OrderIdeal, OrderModule
from .ring import (
    Poly,
    TermOrder,
    Vector,
    pure_power_bounds,
    term_deg,
    term_divides,
    term_lcm,
    term_mul,
    term_one,
    term_quot,
)


def modterm_divides(ms, mt):
    """Divisibility of module terms: same component and term divisibility."""
    return ms[1] == mt[1] and term_divides(ms[0], mt[0])


def _monic(v, order):
    _, c = v.leading_modterm(order)
    return v if c == 1 else v.scale(Fraction(1) / c)


def _lead(g, order):
    """(leading module term, leading coefficient, coefficient dict) of g."""
    return g.leading_modterm(order) + (g.coeffs,)


def gb_normal_form(gb, v, order):
    """Full normal form of v against gb: no support term of the result is
    divisible by a leading term of gb.

    Reduces the sigma-Pos largest term first, by the first element of gb
    whose leading term divides it, rewriting one coefficient dict in place.
    """
    if not gb or v.is_zero():
        return v
    lead = [_lead(g, order) for g in gb]
    return Vector(v.nvars, v.rank, _normal_form(lead, dict(v.coeffs), order))


def _normal_form(lead, w, order):
    """The normal form of the coefficient dict w, which it consumes, against
    the elements whose `_lead` data is `lead`, as a coefficient dict (see
    `gb_normal_form`)."""
    mod_key = order.mod_key
    out = {}
    while w:
        mt = max(w, key=mod_key)
        for lmt, lc, gcoeffs in lead:
            if modterm_divides(lmt, mt):
                tq = term_quot(mt[0], lmt[0])
                f = w[mt] / lc
                # w -= f * tq * g; f and every coefficient of g are nonzero,
                # so a sum that cancels had its key in w
                for (s, k), a in gcoeffs.items():
                    key = (term_mul(tq, s), k)
                    r = w.get(key, 0) - f * a
                    if r:
                        w[key] = r
                    else:
                        del w[key]
                break
        else:
            out[mt] = w.pop(mt)
    return out


def groebner_basis(gens, order):
    """The reduced sigma-Pos Groebner basis of the submodule generated by
    `gens`, sorted by leading term, largest first."""
    basis = [_monic(v, order) for v in gens if not v.is_zero()]
    if not basis:
        return []
    nvars, rank = basis[0].nvars, basis[0].rank
    # parallel to basis, so no leading term is taken twice
    lead = [_lead(g, order) for g in basis]
    heap = []
    counter = itertools.count()

    def push_pairs(new_idx):
        (ti, k), _, _ = lead[new_idx]
        for idx in range(new_idx):
            (tj, k2), _, _ = lead[idx]
            if k == k2:
                key = order.mod_key((term_lcm(tj, ti), k))
                heapq.heappush(heap, (key, next(counter), idx, new_idx))

    for idx in range(len(basis)):
        push_pairs(idx)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        (ti, _), _, _ = lead[i]
        (tj, _), _, _ = lead[j]
        lcm = term_lcm(ti, tj)
        s = basis[i].mul_term(term_quot(lcm, ti)) - basis[j].mul_term(
            term_quot(lcm, tj)
        )
        h = _normal_form(lead, dict(s.coeffs), order)
        if h:
            g = _monic(Vector(nvars, rank, h), order)
            basis.append(g)
            lead.append(_lead(g, order))
            push_pairs(len(basis) - 1)
    return _reduce_basis(basis, lead, order)


def _reduce_basis(basis, lead, order):
    """Interreduce the Groebner basis `basis`, whose `_lead` data is `lead`."""
    items = sorted(zip(basis, lead), key=lambda gl: order.mod_key(gl[1][0]))
    kept = []
    for g, gl in items:
        if any(modterm_divides(kl[0], gl[0]) for _, kl in kept):
            continue
        kept.append((g, gl))
    changed = True
    while changed:
        changed = False
        for idx, (g, _) in enumerate(kept):
            others = [kl for _, kl in kept[:idx] + kept[idx + 1 :]]
            h = _normal_form(others, dict(g.coeffs), order)
            if h != g.coeffs:
                g = _monic(Vector(g.nvars, g.rank, h), order)
                kept[idx] = (g, _lead(g, order))
                changed = True
    kept.sort(key=lambda gl: order.mod_key(gl[1][0]), reverse=True)
    return [g for g, _ in kept]


def leading_module(gb, order):
    """Leading terms of a GB, as a list of module terms."""
    return [g.leading_modterm(order)[0] for g in gb]


def _normal_set(lts, nvars, bound):
    """The terms outside the ideal generated by the terms `lts`, up to
    degree `bound` and lowest degree first; the set of their multiples by a
    variable that lie in the ideal, their border terms; and whether some
    term outside the ideal has a degree above `bound`."""
    if term_one(nvars) in lts:
        return [], set(), False
    level = [term_one(nvars)]
    out, seen, border = [], set(level), set()
    while level and term_deg(level[0]) <= bound:
        out += level
        nxt = []
        for t in level:
            for i in range(nvars):
                s = t[:i] + (t[i] + 1,) + t[i + 1 :]
                if s in seen or s in border:
                    continue
                if any(term_divides(l, s) for l in lts):
                    border.add(s)
                else:
                    seen.add(s)
                    nxt.append(s)
        level = nxt
    return out, border, bool(level)


def macaulay_complement(gb, order, bound=32):
    """The order module of all module terms outside the leading-term module
    of gb.  Finiteness is decided by the pure-power criterion."""
    if not gb:
        raise PreconditionError(
            "complement of the zero submodule is not finite"
        )
    nvars, rank = gb[0].nvars, gb[0].rank
    lts = leading_module(gb, order)
    ideals = []
    for k in range(1, rank + 1):
        comp = [t for t, kk in lts if kk == k]
        bounds = pure_power_bounds(comp, nvars)
        if term_one(nvars) not in comp and None in bounds:
            raise PreconditionError(
                "complement is not finite: no pure power of "
                f"x{bounds.index(None) + 1} among the leading terms of "
                f"component {k}"
            )
        terms, _, past = _normal_set(comp, nvars, bound)
        if past:
            raise PreconditionError(
                f"complement exceeds the degree bound {bound}"
            )
        ideals.append(OrderIdeal(nvars, terms))
    return OrderModule(ideals, order, nvars=nvars)


def naive_border_basis(gens, order, bound=32):
    """Border basis via the Groebner route: M = Macaulay complement of a
    reduced GB, G_j = b_j e - NF(b_j e).  The GB's `_lead` data is built
    once for all border terms."""
    gb = groebner_basis(gens, order)
    om = macaulay_complement(gb, order, bound)
    nvars, rank = om.nvars, om.rank
    lead = [_lead(g, order) for g in gb]
    vectors = []
    for mt in om.border_terms:
        nf = _normal_form(lead, {mt: Fraction(1)}, order)
        coeffs = {key: -c for key, c in nf.items()}
        coeffs[mt] = Fraction(1)
        vectors.append(Vector(nvars, rank, coeffs))
    return om, Prebasis.from_vectors(om, vectors)


class _HeadEliminationOrder:
    """Module ordering that makes every head-component term (component 1)
    larger than every tagged term; used to read syzygies off a GB."""

    def __init__(self, base):
        self.base = base
        self.name = f"elim({base.name})"

    def key(self, t):
        return self.base.key(t)

    def mod_key(self, mt):
        t, k = mt
        return (1 if k == 1 else 0, self.base.key(t), -k)


def syzygies(polys, order=None):
    """Generators of the syzygy module Syz_P(f_1..f_r), via the tagged-GB
    construction: a GB of {f_i e_head + e_i} under a head-eliminating
    ordering; elements with zero head carry the syzygies in their tags."""
    if order is None:
        order = TermOrder("degrevlex")
    polys = list(polys)
    if not polys:
        return []
    nvars = polys[0].nvars
    r = len(polys)
    tagged = []
    for i, p in enumerate(polys):
        if p.is_zero():
            raise PreconditionError("zero polynomial in syzygy input")
        entries = {(t, 1): c for t, c in p.coeffs.items()}
        entries[(term_one(nvars), i + 2)] = Fraction(1)
        tagged.append(Vector(nvars, r + 1, entries))
    gb = groebner_basis(tagged, _HeadEliminationOrder(order))
    out = []
    for g in gb:
        if all(k != 1 for _, k in g.support()):
            syz = Vector(
                nvars, r, {(t, k - 1): c for (t, k), c in g.coeffs.items()}
            )
            check = Poly.zero(nvars)
            for v in range(1, r + 1):
                check = check + syz.component(v) * polys[v - 1]
            assert check.is_zero(), "tagged construction produced a non-syzygy"
            out.append(syz)
    return out


def ideal_intersection(hgens, fgens, order=None):
    """Coefficient tuples (q_1w..q_rw) with sum_v q_vw f_v generating
    I ∩ J for I = <hgens>, J = <fgens>.

    A test oracle, through the syzygies of hgens + fgens; the subideal
    border basis finds its module by linear algebra instead."""
    if order is None:
        order = TermOrder("degrevlex")
    hgens, fgens = list(hgens), list(fgens)
    syz = syzygies(hgens + fgens, order)
    s = len(hgens)
    out = []
    for v in syz:
        q = [-v.component(s + idx + 1) for idx in range(len(fgens))]
        if all(p.is_zero() for p in q):
            continue
        out.append(q)
    return out
