"""Command-line frontend.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 violated mathematical
precondition.  Output on stdout is deterministic: vectors print as sums
sorted sigma-Pos descending with reduced rational coefficients.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import click

from .borderbasis import module_border_basis
from .characterize import buchberger_check, commuting_check, mult_matrices
from .division import divide, reconstruct_prebasis, remainder_vector
from .errors import BorderBasisError, ParseError, PreconditionError
from .groebner import groebner_basis
from .quotient import quotient_border_basis
from .ring import Vector, term_deg, terms_up_to_degree
from .subideal import subideal_border_basis
from .textio import (
    format_combination,
    format_modterm,
    format_poly,
    format_vector,
    parse_vector,
    read_problem,
)

_FORMAT = click.option(
    "--format",
    "fmt",
    type=click.Choice(["pretty", "json"]),
    default="pretty",
    help="Output format.",
)
_MAXDEG = click.option(
    "--max-degree",
    default=32,
    show_default=True,
    help="Degree cap guarding against infinite codimension.",
)
_FILE = click.argument("file", type=click.Path(exists=True, dir_okay=False))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return read_problem(fh.read())


def _require(pf, section):
    entries = getattr(pf, section)
    if not entries:
        raise click.UsageError(f"file has no '{section}:' entries")
    return entries


def _mt_obj(mt):
    return {"term": list(mt[0]), "component": mt[1]}


def _vec_obj(v, order):
    support = sorted(v.support(), key=order.mod_key, reverse=True)
    return {
        "rank": v.rank,
        "terms": [
            {"coeff": str(v.coeff(mt)), "term": list(mt[0]), "component": mt[1]}
            for mt in support
        ],
    }


def _poly_obj(p, order):
    ts = sorted(p.terms(), key=order.key, reverse=True)
    return {"terms": [{"coeff": str(p.coeff(t)), "term": list(t)} for t in ts]}


def _echo(message, err=False):
    """Write a line to the current sys.stdout, or sys.stderr if `err`.

    Naming the stream keeps click from caching it: click's stream cache
    would keep every redirected stdout/stderr of an in-process caller alive.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _show_help(ctx, param, value):
    """click's --help callback, writing through `_echo`."""
    if value and not ctx.resilient_parsing:
        _echo(ctx.get_help())
        ctx.exit()


def _emit_json(obj):
    _echo(json.dumps(obj, indent=2))


@click.group()
def cli():
    """Border bases of finite-codimension submodules of Q[x1..xn]^r."""


@cli.command()
@_FILE
@_MAXDEG
@_FORMAT
def compute(file, max_degree, fmt):
    """Compute the order module and border basis of <vectors>."""
    pf = _load(file)
    gens = _require(pf, "vectors")
    om, g = module_border_basis(gens, pf.order, max_degree=max_degree)
    if fmt == "json":
        _emit_json(
            {
                "module": [_mt_obj(mt) for mt in om.module_terms],
                "basis": [_vec_obj(v, pf.order) for v in g.vectors()],
            }
        )
        return
    inner = ", ".join(format_modterm(mt, pf.varnames) for mt in om.module_terms)
    _echo(f"M = {{{inner}}}")
    for j, v in enumerate(g.vectors(), start=1):
        _echo(f"G{j} = {format_vector(v, pf.varnames, pf.order)}")


@cli.command("divide")
@_FILE
@click.option("--vector", "expr", required=True, help="Vector to divide.")
@_FORMAT
def divide_cmd(file, expr, fmt):
    """Divide a vector by the prebasis given in <vectors>."""
    pf = _load(file)
    g = reconstruct_prebasis(_require(pf, "vectors"), pf.order)
    v = parse_vector(expr, pf.varnames, pf.rank)
    if v.rank != g.om.rank:
        raise PreconditionError("vector does not live in the prebasis module")
    res = divide(g, v)
    nr = remainder_vector(g, res.remainder_coords)
    if fmt == "json":
        _emit_json(
            {
                "quotients": [_poly_obj(p, pf.order) for p in res.quotients],
                "remainder": _vec_obj(nr, pf.order),
            }
        )
        return
    for j, p in enumerate(res.quotients, start=1):
        _echo(f"q{j} = {format_poly(p, pf.varnames, pf.order)}")
    _echo(f"NR = {format_vector(nr, pf.varnames, pf.order)}")


def _random_vector(rng, om):
    deg = max((term_deg(t) for t, _ in om.border_terms), default=0) + 1
    terms = terms_up_to_degree(om.nvars, deg)
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        t = rng.choice(terms)
        k = rng.randint(1, om.rank)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        coeffs[(t, k)] = coeffs.get((t, k), Fraction(0)) + c
    return Vector(om.nvars, om.rank, coeffs)


def _run_samples(g, samples, seed):
    rng = random.Random(seed)
    for i in range(samples):
        v = _random_vector(rng, g.om)
        base = divide(g, v)
        shuffled = divide(g, v, choose=lambda cands: rng.choice(cands))
        for res in (base, shuffled):
            acc = remainder_vector(g, res.remainder_coords)
            for j, p in enumerate(res.quotients):
                acc = acc + g.vector(j).mul_poly(p)
            if acc != v:
                return False, i, "division identity violated"
        if base.remainder_coords != shuffled.remainder_coords:
            return False, i, "normal remainder depends on the choice of terms"
    return True, samples, None


@cli.command()
@_FILE
@click.option(
    "--mode",
    type=click.Choice(["neighbors_only", "all_pairs"]),
    default="neighbors_only",
    show_default=True,
)
@click.option("--samples", default=0, help="Randomized division checks to run.")
@click.option("--seed", default=0, show_default=True, help="Sample RNG seed.")
@_FORMAT
def check(file, mode, samples, seed, fmt):
    """Buchberger criterion: is the prebasis in <vectors> a border basis?"""
    pf = _load(file)
    g = reconstruct_prebasis(_require(pf, "vectors"), pf.order)
    ok, witness = buchberger_check(g, mode)
    sample_report = None
    if samples:
        sok, count, reason = _run_samples(g, samples, seed)
        sample_report = (sok, count, reason)
    if fmt == "json":
        obj = {"border_basis": ok}
        if not ok:
            i, j, nr = witness
            obj["witness"] = {
                "pair": [i + 1, j + 1],
                "normal_remainder": _vec_obj(nr, pf.order),
            }
        if sample_report is not None:
            sok, count, reason = sample_report
            obj["samples"] = {"passed": sok, "count": count, "seed": seed}
            if reason:
                obj["samples"]["reason"] = reason
        _emit_json(obj)
        return
    if ok:
        _echo("a border basis")
    else:
        i, j, nr = witness
        _echo(
            f"NOT a border basis; witness SV(G{i + 1},G{j + 1}), "
            f"NR = {format_vector(nr, pf.varnames, pf.order)}"
        )
    if sample_report is not None:
        sok, count, reason = sample_report
        if sok:
            _echo(f"samples: {count} ok (seed {seed})")
        else:
            _echo(f"samples: FAILED at sample {count}: {reason}")


@cli.command()
@_FILE
@_FORMAT
def multmat(file, fmt):
    """Formal multiplication matrices of the prebasis in <vectors>."""
    pf = _load(file)
    g = reconstruct_prebasis(_require(pf, "vectors"), pf.order)
    mm = mult_matrices(g)
    ok, pair = commuting_check(mm)
    if fmt == "json":
        _emit_json(
            {
                "matrices": [
                    [[str(x) for x in row] for row in m] for m in mm
                ],
                "commuting": ok,
                "witness": None if ok else [pair[0] + 1, pair[1] + 1],
            }
        )
        return
    for s, m in enumerate(mm, start=1):
        _echo(f"X{s} =")
        for row in m:
            _echo("  [" + ", ".join(str(x) for x in row) + "]")
    if ok:
        _echo("commuting: yes")
    else:
        s, u = pair
        _echo(f"commuting: no (X{s + 1}*X{u + 1} != X{u + 1}*X{s + 1})")


@cli.command()
@_FILE
@_FORMAT
def groebner(file, fmt):
    """Reduced sigma-Pos Groebner basis of <vectors>."""
    pf = _load(file)
    gens = _require(pf, "vectors")
    gb = groebner_basis(gens, pf.order)
    if fmt == "json":
        _emit_json({"basis": [_vec_obj(v, pf.order) for v in gb]})
        return
    for j, v in enumerate(gb, start=1):
        _echo(f"H{j} = {format_vector(v, pf.varnames, pf.order)}")


@cli.command()
@_FILE
@_MAXDEG
@_FORMAT
def quotient(file, max_degree, fmt):
    """Border basis of (U+S)/S for U = <vectors>, S = <syzygy>."""
    pf = _load(file)
    ugens = _require(pf, "vectors")
    qp, om, g = quotient_border_basis(ugens, pf.syzygy, pf.order, max_degree)
    if fmt == "json":
        _emit_json(
            {
                "module_classes": [
                    _vec_obj(v, pf.order) for v in qp.module_classes
                ],
                "basis_classes": [
                    _vec_obj(v, pf.order) for v in qp.basis_classes
                ],
            }
        )
        return
    inner = ", ".join(
        f"[{format_vector(v, pf.varnames, pf.order)}]" for v in qp.module_classes
    )
    _echo(f"M^S = {{{inner}}}")
    for j, v in enumerate(qp.basis_classes, start=1):
        _echo(f"G{j}^S = [{format_vector(v, pf.varnames, pf.order)}]")


@cli.command()
@_FILE
@_MAXDEG
@_FORMAT
def subideal(file, max_degree, fmt):
    """Subideal border basis of I = <ideal> inside J = <subideal>."""
    pf = _load(file)
    hgens = _require(pf, "ideal")
    fgens = _require(pf, "subideal")
    oF, gvecs = subideal_border_basis(hgens, fgens, pf.order, max_degree)
    expanded = [oF.ctx.expand_in_P(v) for v in gvecs]
    if fmt == "json":
        _emit_json(
            {
                "order_ideal": [_mt_obj(mt) for mt in oF.formal_terms()],
                "basis_formal": [_vec_obj(v, pf.order) for v in gvecs],
                "basis_expanded": [_poly_obj(p, pf.order) for p in expanded],
            }
        )
        return
    inner = ", ".join(
        format_modterm(mt, pf.varnames, basename="f") for mt in oF.formal_terms()
    )
    _echo(f"O_F = {{{inner}}}")
    for j, (v, p) in enumerate(zip(gvecs, expanded), start=1):
        _echo(
            f"G{j} = {format_combination(v, pf.varnames, pf.order, basename='f')}"
        )
        _echo(f"G{j} expanded = {format_poly(p, pf.varnames, pf.order)}")


# click's own --help writes through its stream cache (see `_echo`)
for _cmd in (cli, *cli.commands.values()):
    click.help_option(callback=_show_help)(_cmd)


def main(argv=None):
    try:
        cli.main(args=argv, prog_name="modborder", standalone_mode=False)
        return 0
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.exceptions.Abort:
        return 1
    except click.ClickException as e:
        _echo(f"error: {e.format_message()}", err=True)
        return 1
    except ParseError as e:
        _echo(f"parse error: {e}", err=True)
        return 2
    except BorderBasisError as e:
        _echo(f"error: {e}", err=True)
        return 3
