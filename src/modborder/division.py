"""Module border prebases and the border division algorithm.

Division runs on integers: the remainder is one integer coefficient dict over
a single common denominator, and each G_j is rewritten through as an integer
row with the lcm of its denominators (cached on the prebasis).  Fractions are
built only for the quotient entries and the remainder coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PreconditionError
from .linalg import _integral
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

    __slots__ = ("om", "coeffs", "_vectors", "_int_rows", "_basis_verdict")

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
        self._int_rows = None
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

    def _integer_rows(self):
        """Each G_j as (L_j, tail): L_j is the lcm of its denominators, the
        coefficient of the border term in L_j*G_j, and the tail is the
        integer coefficient dict of the other terms of L_j*G_j, which lie
        in M.  Prebases are immutable, so the rows are built once, on first
        use."""
        if self._int_rows is None:
            self._int_rows = []
            for bmt, v in zip(self.om.border_terms, self._vectors):
                tail = _integral(v.coeffs)
                self._int_rows.append((tail.pop(bmt), tail))
        return self._int_rows

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


# the remainder's content is divided out each time its denominator has grown
# by this many bits since the start or the last removal
_CONTENT_BITS = 64


def divide(g, v, choose=None):
    """Border division of v by the prebasis g.

    Repeatedly picks a support term of maximal M-index (by default the
    sigma-Pos largest; `choose` may pick any of them from the list of all of
    them, sorted sigma-Pos descending — the result does not depend on the
    choice) and rewrites it through the border factorization with the
    smallest border index.  Returns a DivisionResult satisfying
    v = sum_j p_j G_j + sum_i c_i t_i e_{alpha_i}.

    The remainder is kept as integers q over one common denominator D.  A
    step with coefficient a/D rewrites through the integer row L_j*G_j
    (`Prebasis._integer_rows`): with h = gcd(a, L_j) it scales q and D by L_j/h
    and subtracts (a/h)*t'*L_j*G_j, which cancels the rewritten term.  The
    terms outside M sit in buckets by M-index; rewriting a term of index i
    only creates terms of index < i, so the bucket of the maximal index is
    complete when the loop reaches it, and a step looks up the index of the
    terms it creates only.
    """
    _check_compat(g, v)
    om = g.om
    index, mod_key = om.index, om.order.mod_key
    rows = g._integer_rows()
    quotients = [{} for _ in range(om.nu)]
    den = lcm(*{c.denominator for c in v.coeffs.values()})
    q = _integral(v.coeffs)
    content_at = den.bit_length() + _CONTENT_BITS
    inds = {mt: index(mt) for mt in q}
    buckets = [set() for _ in range(max(inds.values(), default=0) + 1)]
    for mt, i in inds.items():
        buckets[i].add(mt)
    for ind in range(len(buckets) - 1, 0, -1):
        cands = sorted(buckets[ind], key=mod_key, reverse=True)
        while cands:
            mt = cands[0] if choose is None else choose(list(cands))
            cands.remove(mt)
            a = q.pop(mt)
            tprime, bmt = om.factor_through_border(mt)
            j = om.border_pos[bmt]
            # mt, and so (j, t'), comes up once: later terms have lower index
            quotients[j][tprime] = Fraction(a, den)
            lj, tail = rows[j]
            h = gcd(a, lj)
            if h != lj:
                m = lj // h
                den *= m
                for key in q:
                    q[key] *= m
            f = -(a // h)
            # q += f * t' * L_j*G_j: its border term cancels mt, popped above
            for (s, k), c in tail.items():
                key = (term_mul(tprime, s), k)
                r = q.get(key)
                if r is None:
                    q[key] = f * c
                    i = inds.get(key)
                    if i is None:
                        i = inds[key] = index(key)
                    buckets[i].add(key)
                else:
                    r += f * c
                    if r:
                        q[key] = r
                    else:
                        del q[key]
                        buckets[inds[key]].discard(key)
            if den.bit_length() > content_at:
                h = gcd(den, *q.values())
                if h != 1:
                    den //= h
                    for key in q:
                        q[key] //= h
                content_at = den.bit_length() + _CONTENT_BITS
    coords = [
        Fraction(q[mt], den) if mt in q else Fraction(0)
        for mt in om.module_terms
    ]
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


# the demotion search of `reconstruct_prebasis` visits at most this many
# states; it is exponential in the worst case, and the inputs that have a
# reading need a handful
_RECONSTRUCT_STATES = 1000


def reconstruct_prebasis(vectors, order):
    """Recover the (unique) prebasis whose vectors are the given ones.

    The union of the supports, closed under divisors, is exactly M u dM
    componentwise.  The split is normally forced ({t : all x_i*t inside} = M);
    when that overshoots — the closure can be a full staircase whose top
    layer is readable either way — the element count |dM| = number of vectors
    disambiguates, and we search the few admissible demotions of maximal
    elements, giving up after `_RECONSTRUCT_STATES` states.  Ambiguous or
    malformed input is rejected.
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

    # depth first, each state once, children in the order they are listed
    stack = [start]
    while stack:
        mk = stack.pop()
        state = frozenset((k, frozenset(s)) for k, s in mk.items())
        if state in seen_states:
            continue
        seen_states.add(state)
        if len(seen_states) > _RECONSTRUCT_STATES:
            raise PreconditionError(
                "prebasis reconstruction gave up: more than "
                f"{_RECONSTRUCT_STATES} candidate order modules searched"
            )
        size = sum(len(s) for s in mk.values())
        if size == mu:
            pb = valid_reading(mk)
            if pb is not None:
                found.append(pb)
            continue
        if size < mu:
            continue
        # demote a maximal element t (mk[k] is an order ideal: no x_i*t in it)
        children = []
        for k in range(1, rank + 1):
            for t in mk[k]:
                if any(term_mul(t, xs) in mk[k] for xs in units):
                    continue
                child = dict(mk)
                child[k] = mk[k] - {t}
                children.append(child)
        stack.extend(reversed(children))
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
