"""Border bases of quotient modules P^r/S, through characterizing data in P^r."""

from __future__ import annotations

from fractions import Fraction

from .borderbasis import module_border_basis
from .characterize import is_border_basis
from .division import Prebasis, divide, remainder_vector
from .errors import PreconditionError
from .groebner import _lead, _normal_form, groebner_basis
from .ordermodule import OrderIdeal, OrderModule, _term_str
from .ring import Vector


class QuotientContext:
    """Residue-class arithmetic in P^r/S with GB-canonical representatives."""

    __slots__ = ("sgens", "order", "gb", "_lead")

    def __init__(self, sgens, order):
        sgens = list(sgens)
        for v in sgens:
            if v.is_zero():
                raise PreconditionError("zero generator for the submodule S")
        self.sgens = sgens
        self.order = order
        self.gb = groebner_basis(sgens, order) if sgens else []
        self._lead = [_lead(g, order) for g in self.gb]

    def epsilon(self, v):
        """The canonical representative of the residue class v + S (see
        `gb_normal_form`)."""
        nf = _normal_form(self._lead, dict(v.coeffs), self.order)
        return Vector(v.nvars, v.rank, nf)

    def same_class(self, v, w):
        return self.epsilon(v - w).is_zero()


def _class_of_term(ctx, om, mt):
    t, k = mt
    return ctx.epsilon(Vector.monomial(om.nvars, om.rank, t, k))


def _class_key(cls):
    """A hashable key of a canonical residue-class representative."""
    return tuple(sorted(cls.coeffs.items()))


def _module_classes(ctx, om):
    """The residue classes of the terms of M, in canonical order; two terms
    in one class mean M does not characterize an order quotient module."""
    classes = []
    seen = {}
    for mt in om.module_terms:
        cls = _class_of_term(ctx, om, mt)
        key = _class_key(cls)
        if key in seen:
            other = seen[key]
            raise PreconditionError(
                "no characterizing order module: representatives "
                f"{_term_str(other[0])}*e{other[1]} and "
                f"{_term_str(mt[0])}*e{mt[1]} fall in the same residue class"
            )
        seen[key] = mt
        classes.append(cls)
    return classes


class QuotPrebasis:
    """A prebasis (M, G) in P^r together with its residue classes mod S.

    The classes of the elements of M must be pairwise distinct (M
    characterizes the order quotient module M^S); the lists of classes are
    parallel to the canonical enumerations of M, the border, and G.
    """

    __slots__ = (
        "ctx",
        "underlying",
        "module_classes",
        "border_classes",
        "basis_classes",
    )

    def __init__(self, ctx, underlying):
        self.ctx = ctx
        self.underlying = underlying
        om = underlying.om
        self.module_classes = _module_classes(ctx, om)
        self.border_classes = [
            _class_of_term(ctx, om, mt) for mt in om.border_terms
        ]
        self.basis_classes = [
            ctx.epsilon(v) for v in underlying.vectors()
        ]


def quotient_border_basis(ugens, sgens, order, max_degree=32):
    """Border basis of U^S = (U+S)/S in P^r/S.

    Runs the main algorithm on the concatenated generators and pushes the
    result through the canonical epimorphism; returns (QuotPrebasis, M, G)
    with (M, G) the underlying characterizing pair.
    """
    ugens, sgens = list(ugens), list(sgens)
    if not ugens:
        raise PreconditionError("no generators for the submodule U")
    om, g = module_border_basis(ugens + sgens, order, max_degree=max_degree)
    ctx = QuotientContext(sgens, order)
    qp = QuotPrebasis(ctx, g)
    return qp, om, g


def build_characterizing_prebasis(module_reps, border_reps, coeffs, ctx, order):
    """Assemble the prebasis in P^r characterizing a quotient prebasis.

    `module_reps` are the chosen representatives of M^S (row order of
    `coeffs`), `border_reps` those of the quotient border classes (column
    order).  The representatives must form an order module on which the
    epimorphism is injective; every term of its full border must fall in
    exactly one represented class, whose coefficient column it inherits.
    """
    module_reps = list(module_reps)
    border_reps = list(border_reps)
    if len(set(module_reps)) != len(module_reps):
        raise PreconditionError("duplicate module-term representative")
    coeffs = [[Fraction(x) for x in row] for row in coeffs]
    if len(coeffs) != len(module_reps) or any(
        len(row) != len(border_reps) for row in coeffs
    ):
        raise PreconditionError(
            "coefficient matrix shape does not match the representatives"
        )
    if not module_reps:
        raise PreconditionError("empty representative list")
    nvars = len(module_reps[0][0])
    rank = max(k for _, k in module_reps + border_reps)
    ideals = []
    for k in range(1, rank + 1):
        ideals.append(OrderIdeal(nvars, [t for t, kk in module_reps if kk == k]))
    om = OrderModule(ideals, order, nvars=nvars)
    _module_classes(ctx, om)
    rep_keys = {}
    for idx, mt in enumerate(border_reps):
        key = _class_key(_class_of_term(ctx, om, mt))
        if key in rep_keys:
            raise PreconditionError(
                "border representatives fall in the same residue class"
            )
        rep_keys[key] = idx
    columns = []
    hit = set()
    for bmt in om.border_terms:
        key = _class_key(_class_of_term(ctx, om, bmt))
        if key not in rep_keys:
            raise PreconditionError(
                f"border term {_term_str(bmt[0])}*e{bmt[1]} is not in any "
                "represented residue class"
            )
        columns.append(rep_keys[key])
        hit.add(rep_keys[key])
    if len(hit) != len(border_reps):
        missing = next(i for i in range(len(border_reps)) if i not in hit)
        mt = border_reps[missing]
        raise PreconditionError(
            f"representative {_term_str(mt[0])}*e{mt[1]} does not represent "
            "any border class of the order module"
        )
    given_row = {mt: i for i, mt in enumerate(module_reps)}
    full = [
        [coeffs[given_row[mt]][col] for col in columns]
        for mt in om.module_terms
    ]
    return Prebasis(om, full)


def check_quotient_basis(qp):
    """Decide whether G^S is a quotient border basis: the underlying G must
    be a border basis and every S-generator must divide to remainder 0.

    Returns (True, None) or (False, diagnostic) where the diagnostic is
    ('buchberger', (i, j, nr)) or ('membership', index, nr)."""
    ok, witness = is_border_basis(qp.underlying)
    if not ok:
        return False, ("buchberger", witness)
    for idx, s in enumerate(qp.ctx.sgens):
        res = divide(qp.underlying, s)
        nr = remainder_vector(qp.underlying, res.remainder_coords)
        if not nr.is_zero():
            return False, ("membership", idx, nr)
    return True, None
