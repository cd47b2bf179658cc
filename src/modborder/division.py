"""Module border prebases and the border division algorithm."""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .ordermodule import OrderIdeal, OrderModule
from .ring import (
    Poly,
    Vector,
    term_divides,
    term_mul,
    term_pred,
    term_quot,
    unit_terms,
)


class Prebasis:
    """A module border prebasis G_j = b_j e_{beta_j} - sum_i c_ij t_i e_{alpha_i}.

    `coeffs` is the mu x nu matrix (c_ij), row i indexed by the canonical
    enumeration of M and column j by the canonical enumeration of the border.
    All indices in this module are 0-based; printed output is 1-based.
    """

    __slots__ = ("om", "coeffs", "_vectors", "_basis_verdict")

    def __init__(self, om, coeffs):
        mu, nu = om.mu, om.nu
        coeffs = [
            [x if type(x) is Fraction else Fraction(x) for x in row]
            for row in coeffs
        ]
        if len(coeffs) != mu or any(len(row) != nu for row in coeffs):
            raise PreconditionError(
                f"coefficient matrix must be {mu}x{nu} for this order module"
            )
        self.om = om
        self.coeffs = coeffs
        self._basis_verdict = None
        nvars, rank = om.nvars, om.rank
        self._vectors = []
        for j, bmt in enumerate(om.border_terms):
            entries = {bmt: Fraction(1)}
            for i, tmt in enumerate(om.module_terms):
                if coeffs[i][j]:
                    entries[tmt] = -coeffs[i][j]
            self._vectors.append(Vector(nvars, rank, entries))

    @classmethod
    def from_vectors(cls, om, vectors):
        """Build a prebasis from its vectors, in any order.

        Each vector must consist of exactly one border term with coefficient
        1 plus a tail supported in M, and the border terms must cover the
        border bijectively.
        """
        vectors = list(vectors)
        if len(vectors) != om.nu:
            raise PreconditionError(
                f"expected {om.nu} prebasis vectors (one per border term), "
                f"got {len(vectors)}"
            )
        coeffs = [[Fraction(0)] * om.nu for _ in range(om.mu)]
        seen = set()
        for v in vectors:
            border_hits = [mt for mt in v.support() if mt in om.border_pos]
            if len(border_hits) != 1:
                raise PreconditionError(
                    "prebasis vector must contain exactly one border term, "
                    f"found {len(border_hits)}"
                )
            bmt = border_hits[0]
            if v.coeff(bmt) != 1:
                raise PreconditionError(
                    f"border term coefficient must be 1, got {v.coeff(bmt)}"
                )
            j = om.border_pos[bmt]
            if j in seen:
                raise PreconditionError("duplicate border term among vectors")
            seen.add(j)
            for mt, c in v.coeffs.items():
                if mt == bmt:
                    continue
                if mt not in om.module_pos:
                    raise PreconditionError(
                        "prebasis vector tail has a term outside the order "
                        "module"
                    )
                coeffs[om.module_pos[mt]][j] = -c
        return cls(om, coeffs)

    @property
    def mu(self):
        return self.om.mu

    @property
    def nu(self):
        return self.om.nu

    def vector(self, j):
        return self._vectors[j]

    def vectors(self):
        return list(self._vectors)

    def __eq__(self, other):
        return (
            isinstance(other, Prebasis)
            and self.om == other.om
            and self.coeffs == other.coeffs
        )


class DivisionResult:
    """Quotients p_1..p_nu and remainder coordinates c_1..c_mu."""

    __slots__ = ("quotients", "remainder_coords")

    def __init__(self, quotients, remainder_coords):
        self.quotients = quotients
        self.remainder_coords = remainder_coords

    def __eq__(self, other):
        return (
            isinstance(other, DivisionResult)
            and self.quotients == other.quotients
            and self.remainder_coords == other.remainder_coords
        )

    def __repr__(self):
        return f"DivisionResult({self.quotients!r}, {self.remainder_coords!r})"


def _check_compat(g, v):
    if v.rank != g.om.rank or v.nvars != g.om.nvars:
        raise PreconditionError("vector does not live in the prebasis module")


def divide(g, v, choose=None):
    """Border division of v by the prebasis g.

    Repeatedly picks a support term of maximal M-index (by default the
    sigma-Pos largest; `choose` may pick any of them — the result does not
    depend on the choice) and rewrites it through the border factorization
    with the smallest border index.  Returns a DivisionResult satisfying
    v = sum_j p_j G_j + sum_i c_i t_i e_{alpha_i}.
    """
    _check_compat(g, v)
    om = g.om
    index, mod_key = om.index, om.order.mod_key
    quotients = [{} for _ in range(om.nu)]
    q = dict(v.coeffs)
    while q:
        inds = {mt: index(mt) for mt in q}
        ind = max(inds.values())
        if ind == 0:
            break
        cands = [mt for mt, i in inds.items() if i == ind]
        cands.sort(key=mod_key, reverse=True)
        mt = cands[0] if choose is None else choose(cands)
        a = q[mt]
        tprime, bmt = om.factor_through_border(mt)
        j = om.border_pos[bmt]
        pj = quotients[j]
        pj[tprime] = pj.get(tprime, 0) + a
        # q -= a * t' * G_j; a and every coefficient of G_j are nonzero, so a
        # sum that cancels had its key in q
        for (s, k), c in g.vector(j).coeffs.items():
            key = (term_mul(tprime, s), k)
            r = q.get(key, 0) - a * c
            if r:
                q[key] = r
            else:
                del q[key]
    coords = [q.get(mt, Fraction(0)) for mt in om.module_terms]
    return DivisionResult([Poly(om.nvars, p) for p in quotients], coords)


def remainder_vector(g, coords):
    """Assemble sum_i c_i t_i e_{alpha_i} from remainder coordinates."""
    om = g.om
    return Vector(
        om.nvars,
        om.rank,
        {mt: c for mt, c in zip(om.module_terms, coords) if c},
    )


def normal_remainder(g, v):
    """NR_G(v): the <M>_K part left by border division."""
    return remainder_vector(g, divide(g, v).remainder_coords)


def rewrite_step(g, v, mt, j):
    """One rewrite step: eliminate the support term mt of v using G_j."""
    _check_compat(g, v)
    c = v.coeff(mt)
    if not c:
        raise PreconditionError("term is not in the support of the vector")
    t, k = mt
    b, bk = g.om.border_terms[j]
    if k != bk or not term_divides(b, t):
        raise PreconditionError(
            f"support term is not a multiple of border term {j + 1}"
        )
    return v - g.vector(j).mul_term(term_quot(t, b), c)


def normal_form(g, v):
    """The normal form of v; requires g to be a border basis."""
    if g._basis_verdict is None:
        from .characterize import is_border_basis

        g._basis_verdict = is_border_basis(g)
    ok, witness = g._basis_verdict
    if not ok:
        i, j, _ = witness
        raise PreconditionError(
            "normal form undefined: prebasis is not a border basis "
            f"(Buchberger fails at pair ({i + 1},{j + 1}))"
        )
    return normal_remainder(g, v)


# ---------------------------------------------------------------------------
# reconstruction of (M, G) from bare vectors (CLI input)


def _closure(terms):
    out = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t in out:
            continue
        out.add(t)
        for i, e in enumerate(t):
            if e > 0:
                stack.append(term_pred(t, i))
    return out


def reconstruct_prebasis(vectors, order):
    """Recover the (unique) prebasis whose vectors are the given ones.

    The union of the supports, closed under divisors, is exactly M u dM
    componentwise.  The split is normally forced ({t : all x_i*t inside} = M);
    when that overshoots — the closure can be a full staircase whose top
    layer is readable either way — the element count |dM| = number of vectors
    disambiguates, and we search the few admissible demotions of maximal
    elements.  Ambiguous or malformed input is rejected.
    """
    vectors = list(vectors)
    if not vectors:
        raise PreconditionError("no prebasis vectors given")
    nvars, rank = vectors[0].nvars, vectors[0].rank
    for v in vectors:
        if v.nvars != nvars or v.rank != rank:
            raise PreconditionError("vectors live in different modules")
        if v.is_zero():
            raise PreconditionError("zero vector in prebasis input")
    closure = {k: set() for k in range(1, rank + 1)}
    for v in vectors:
        for t, k in v.support():
            closure[k].add(t)
    for k in range(1, rank + 1):
        closure[k] = _closure(closure[k])
    total = sum(len(c) for c in closure.values())
    mu = total - len(vectors)
    if mu < 0:
        raise PreconditionError(
            "more vectors than border terms are possible for these supports"
        )

    units = unit_terms(nvars)

    def interior(cset):
        return {
            t for t in cset if all(term_mul(t, xs) in cset for xs in units)
        }

    start = {k: interior(closure[k]) for k in closure}
    found = []
    seen_states = set()

    def valid_reading(mk):
        try:
            ideals = [OrderIdeal(nvars, mk[k]) for k in range(1, rank + 1)]
            om = OrderModule(ideals, order, nvars=nvars)
        except PreconditionError:
            return None
        want = {
            (t, k) for k in range(1, rank + 1) for t in closure[k] - mk[k]
        }
        if set(om.border_terms) != want:
            return None
        try:
            return Prebasis.from_vectors(om, vectors)
        except PreconditionError:
            return None

    def search(mk):
        size = sum(len(s) for s in mk.values())
        state = frozenset((k, frozenset(s)) for k, s in mk.items())
        if state in seen_states:
            return
        seen_states.add(state)
        if size == mu:
            pb = valid_reading(mk)
            if pb is not None:
                found.append(pb)
            return
        if size < mu:
            return
        for k in range(1, rank + 1):
            for t in mk[k]:
                bigger = any(
                    s != t and term_divides(t, s) for s in mk[k]
                )
                if bigger:
                    continue
                child = dict(mk)
                child[k] = mk[k] - {t}
                search(child)

    search(start)
    if not found:
        raise PreconditionError(
            "vectors do not form a module border prebasis"
        )
    first = found[0]
    if any(pb.om != first.om for pb in found[1:]):
        raise PreconditionError(
            "ambiguous prebasis input: several order modules fit the vectors"
        )
    return first
