"""Order ideals, order modules, k-th borders, the index filtration and corners."""

from __future__ import annotations

from .errors import PreconditionError
from .ring import (
    term_deg,
    term_divides,
    term_mul,
    term_pred,
    term_quot,
    terms_of_degree,
)
from .textio import format_term


def _term_str(t):
    """The term t printed in the variables x1..xn."""
    return format_term(t, [f"x{i + 1}" for i in range(len(t))])


class OrderIdeal:
    """A finite, divisor-closed set of terms (possibly empty).

    An order ideal is immutable after construction, so its first border and
    the index of each term looked up are computed once, on first use, and
    kept on the instance.
    """

    __slots__ = ("nvars", "terms", "_border1", "_index")

    def __init__(self, nvars, terms):
        terms = frozenset(tuple(t) for t in terms)
        for t in terms:
            for i, e in enumerate(t):
                if e > 0:
                    d = term_pred(t, i)
                    if d not in terms:
                        raise PreconditionError(
                            f"not divisor-closed: {_term_str(t)} present but "
                            f"divisor {_term_str(d)} missing"
                        )
        self.nvars = nvars
        self.terms = terms
        self._border1 = None
        self._index = {}

    def is_empty(self):
        return not self.terms

    def __contains__(self, t):
        return t in self.terms

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, OrderIdeal)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def border(self, k=1):
        """The k-th border, by the closed formula
        ((T_k * O) u T_{k-1}) \\ (T_{<k} * O); the k-th border of the empty
        order ideal is the set of terms of degree exactly k-1.  The first
        border is kept and returned as a frozenset."""
        if k < 1:
            raise PreconditionError(f"border index must be >= 1, got {k}")
        if k == 1:
            return self._first_border()
        return self._closed_border(k)

    def _first_border(self):
        if self._border1 is None:
            self._border1 = frozenset(self._closed_border(1))
        return self._border1

    def _closed_border(self, k):
        n = self.nvars
        top = {
            term_mul(u, t)
            for u in terms_of_degree(n, k)
            for t in self.terms
        }
        top.update(terms_of_degree(n, k - 1))
        below = {
            term_mul(u, t)
            for j in range(k)
            for u in terms_of_degree(n, j)
            for t in self.terms
        }
        return top - below

    def border_closure(self, k):
        """The disjoint union of the borders of order 0..k (order 0 = O)."""
        if k < 0:
            raise PreconditionError(f"closure index must be >= 0, got {k}")
        out = set(self.terms)
        for i in range(1, k + 1):
            out |= self.border(i)
        return out

    def index(self, t):
        """The unique i with t in the i-th border of this order ideal."""
        ind = self._index.get(t)
        if ind is None:
            ind = self._index[t] = self._scan_index(t)
        return ind

    def _scan_index(self, t):
        if t in self.terms:
            return 0
        if not self.terms:
            return term_deg(t) + 1
        best = None
        for b in self._first_border():
            if term_divides(b, t):
                gap = term_deg(t) - term_deg(b)
                if best is None or gap < best:
                    best = gap
        assert best is not None, "order ideal border must contain a divisor"
        return best + 1

    def corners(self):
        """Minimal generators of the complement monoideal."""
        if not self.terms:
            if self.nvars == 0:
                return set()
            return {(0,) * self.nvars}
        out = set()
        for b in self._first_border():
            if all(
                term_pred(b, i) in self.terms for i, e in enumerate(b) if e > 0
            ):
                out.add(b)
        return out


class OrderModule:
    """An order module O_1*e1 u ... u O_r*er with canonical enumerations.

    Module terms and border terms are enumerated component by component
    (ascending component index) and descending under sigma within each
    component; positions are available through `module_pos` / `border_pos`
    (0-based).
    """

    __slots__ = (
        "nvars",
        "rank",
        "order",
        "ideals",
        "module_terms",
        "border_terms",
        "module_pos",
        "border_pos",
        "_factor",
    )

    def __init__(self, ideals, order, nvars=None):
        ideals = list(ideals)
        if ideals:
            nvars = ideals[0].nvars
        elif nvars is None:
            nvars = 0
        if any(o.nvars != nvars for o in ideals):
            raise PreconditionError("order ideals live in different rings")
        self.nvars = nvars
        self.rank = len(ideals)
        self.order = order
        self.ideals = ideals
        self.module_terms = []
        self.border_terms = []
        for k, o in enumerate(ideals, start=1):
            desc = sorted(o.terms, key=order.key, reverse=True)
            self.module_terms.extend((t, k) for t in desc)
            bdesc = sorted(o.border(1), key=order.key, reverse=True)
            self.border_terms.extend((b, k) for b in bdesc)
        self.module_pos = {mt: i for i, mt in enumerate(self.module_terms)}
        self.border_pos = {mt: j for j, mt in enumerate(self.border_terms)}
        self._factor = {}

    @property
    def mu(self):
        return len(self.module_terms)

    @property
    def nu(self):
        return len(self.border_terms)

    def __contains__(self, mt):
        return mt in self.module_pos

    def __eq__(self, other):
        return (
            isinstance(other, OrderModule)
            and self.rank == other.rank
            and self.ideals == other.ideals
        )

    def border(self, k=1):
        """The k-th border as a set of module terms."""
        out = set()
        for j, o in enumerate(self.ideals, start=1):
            out.update((t, j) for t in o.border(k))
        return out

    def border_closure(self, k):
        out = set()
        for j, o in enumerate(self.ideals, start=1):
            out.update((t, j) for t in o.border_closure(k))
        return out

    def index(self, mt):
        """The M-index of a module term."""
        t, k = mt
        self._check_component(k)
        return self.ideals[k - 1].index(t)

    def index_vec(self, v):
        """The M-index of a nonzero vector: max over its support."""
        if v.is_zero():
            raise PreconditionError("M-index of the zero vector is undefined")
        return max(self.index(mt) for mt in v.support())

    def factor_through_border(self, mt):
        """Factor t*e_k (not in M) as t' * b_j*e_k with deg(t') = index - 1,
        choosing the smallest j in the canonical border enumeration.  Each
        factorization is computed once and kept."""
        hit = self._factor.get(mt)
        if hit is None:
            hit = self._factor[mt] = self._scan_factor(mt)
        return hit

    def _scan_factor(self, mt):
        t, k = mt
        self._check_component(k)
        if mt in self.module_pos:
            raise PreconditionError(
                f"{_term_str(t)}*e{k} lies in the order module"
            )
        want = self.index(mt) - 1
        for b, kk in self.border_terms:
            if (
                kk == k
                and term_deg(t) - term_deg(b) == want
                and term_divides(b, t)
            ):
                return term_quot(t, b), (b, kk)
        raise AssertionError("border factorization must exist")

    def corners(self):
        """Minimal monomial generators of the complement of M in T^n<e>."""
        out = set()
        for k, o in enumerate(self.ideals, start=1):
            out.update((t, k) for t in o.corners())
        return out

    def _check_component(self, k):
        if not 1 <= k <= self.rank:
            raise PreconditionError(
                f"component {k} out of range 1..{self.rank}"
            )


def validate_order_module(ideals, order, nvars=None):
    """Build an OrderModule from raw term sets, validating divisor closure."""
    built = []
    for terms in ideals:
        terms = list(terms)
        if nvars is None and terms:
            nvars = len(terms[0])
        built.append(terms)
    if nvars is None:
        raise PreconditionError(
            "cannot infer the number of variables from empty ideals"
        )
    return OrderModule([OrderIdeal(nvars, ts) for ts in built], order)
