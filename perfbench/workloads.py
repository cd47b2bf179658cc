"""The three workloads: compute, check and cli.

A workload has two steps.  `prepare(mb, seed)` makes the seeded inputs and
every oracle answer; it runs in set-up, outside any timed region.  `build(mb,
state)` turns the prepared state into rounds of ops made of fresh library
objects, so two passes over the same rounds start from the same state.

An op is (kind, run, check): `run()` is the one timed library call and
`check(result)` compares its result with the oracle afterwards.  A round holds
one op of each kind, so any prefix of the op stream keeps the mix.  Library
calls go through the `mb` package attributes at call time, which is where
the tracer installs its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
EXAMPLES = HERE / "examples"
GOLDEN = HERE / "golden"


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _vectors(mb, nvars, rank, plain):
    return [mb.Vector(nvars, rank, dict(v)) for v in plain]


# ---------------------------------------------------------------------------
# compute: the main algorithm and its quotient and subideal variants

# (kind, nvars, shape): dense families give the degrees of the generators,
# known-codimension families the exponents a_ki of each component.
COMPUTE_FAMILIES = (
    ("mbba.dense_n2_d33", 2, (3, 3)),
    ("mbba.dense_n3_d122", 3, (1, 2, 2)),
    ("mbba.known_r2_n2_mu12", 2, ((2, 3), (3, 2))),
    ("mbba.known_r3_n2_mu8", 2, ((2, 1), (1, 2), (2, 2))),
    ("mbba.known_r2_n3_mu4", 3, ((1, 1, 2), (1, 2, 1))),
)
QUOTIENT_SHAPE = ((2, 1), (1, 2), (2, 2))
SUBIDEAL_SHAPE = (2, 3)
COMPUTE_POOL = 20  # distinct rounds of inputs; the batch cycles through them


def prepare_compute(mb, seed):
    rng = random.Random(seed)
    order = mb.TermOrder("degrevlex")
    rounds = []
    for _ in range(COMPUTE_POOL):
        ops = []
        for kind, nvars, shape in COMPUTE_FAMILIES:
            if kind.startswith("mbba.dense"):
                plain, mu = gen.dense_ideal(rng, nvars, shape), None
            else:
                plain, mu = gen.known_codim_module(rng, shape)
            rank = max(k for v in plain for _, k in v)
            gens = _vectors(mb, nvars, rank, plain)
            expect = mb.naive_border_basis(gens, order)
            if mu is not None and expect[0].mu != mu:
                raise RuntimeError(f"{kind}: Groebner route gives mu={expect[0].mu}, family fixes {mu}")
            ops.append((kind, nvars, rank, plain, expect))
        ugens, sgens, mu = gen.quotient_pair(rng, QUOTIENT_SHAPE)
        rank = len(QUOTIENT_SHAPE)
        expect = mb.naive_border_basis(_vectors(mb, 2, rank, ugens + sgens), order)
        if expect[0].mu != mu:
            raise RuntimeError(f"quotient: Groebner route gives mu={expect[0].mu}, family fixes {mu}")
        ops.append(("quotient", 2, rank, (ugens, sgens), expect))
        ops.append(("subideal", 2, 1, gen.subideal_pair(rng, SUBIDEAL_SHAPE), None))
        rounds.append(ops)
    inputs = [[(spec[0], spec[3]) for spec in ops] for ops in rounds]
    return {"order": order, "rounds": rounds, "inputs": inputs}


def _compute_op(mb, order, kind, nvars, rank, plain, expect):
    if kind == "quotient":
        ugens = _vectors(mb, nvars, rank, plain[0])
        sgens = _vectors(mb, nvars, rank, plain[1])

        def check(res):
            qp, om, g = res
            return (om, g) == expect and mb.check_quotient_basis(qp) == (True, None)

        return Op(kind, lambda: mb.quotient_border_basis(ugens, sgens, order), check)
    if kind == "subideal":
        hgens = [mb.Poly(nvars, dict(p)) for p in plain[0]]
        fgens = [mb.Poly(nvars, dict(p)) for p in plain[1]]

        def check(res):
            o_f, gvecs = res
            return mb.check_subideal_basis(o_f.ctx, o_f, gvecs, hgens) == (True, None)

        return Op(kind, lambda: mb.subideal_border_basis(hgens, fgens, order), check)
    gens = _vectors(mb, nvars, rank, plain)
    return Op(kind, lambda: mb.module_border_basis(gens, order), lambda res: res == expect)


def build_compute(mb, state):
    order = state["order"]
    return [[_compute_op(mb, order, *spec) for spec in ops] for ops in state["rounds"]]


def compute_ratio_inputs(mb, state, nrounds):
    """The generator lists of the main-algorithm ops in the first rounds,
    for timing the Groebner route on the same inputs."""
    return [
        (kind, _vectors(mb, nvars, rank, plain))
        for ops in state["rounds"][:nrounds]
        for kind, nvars, rank, plain, _ in ops
        if kind.startswith("mbba.")
    ]


# ---------------------------------------------------------------------------
# check: basis verdicts and normal remainders on Groebner-route prebases

# (family, nvars, shape), alternating over the pool of bases.
CHECK_FAMILIES = (
    ("known_r1_n2_mu9", 2, ((3, 3),)),
    ("known_r2_n2_mu12", 2, ((2, 3), (3, 2))),
)
CHECK_POOL = 16  # distinct bases, each with a perturbed twin
CHECK_VARIANTS = 2  # rounds per basis, each with its own vectors
# (degrees above the border degree, vectors of that degree per round).  With
# one op more below the deg+2 remainders than above them, the median op sits
# a quarter of the way into the deg+2 remainders: in the middle of those on
# the cheaper rank-1 bases, not in the gap between the two families, and
# well apart from the deg+1 ones and the verdicts.
DEGREE_VECTORS = ((1, 3), (2, 2), (3, 2), (4, 2), (5, 2))
PATTERNS = max(n for _, n in DEGREE_VECTORS)  # monomial patterns per variant


def prepare_check(mb, seed):
    rng = random.Random(seed)
    order = mb.TermOrder("degrevlex")
    bases = []
    for b in range(CHECK_POOL):
        family, nvars, shape = CHECK_FAMILIES[b % len(CHECK_FAMILIES)]
        plain, mu = gen.known_codim_module(rng, shape)
        rank = len(shape)
        gens = _vectors(mb, nvars, rank, plain)
        om, g = mb.naive_border_basis(gens, order)
        gb = mb.groebner_basis(gens, order)
        # The verdict oracle is whether the Groebner-route codimension of <G>
        # equals mu.  Division shows that M spans P^r/<G>, so codim <G> <= mu;
        # for the true basis <G> lies in U, whose codimension the family fixes.
        if om.mu != mu or mb.macaulay_complement(gb, order).mu != mu:
            raise RuntimeError(f"{family}: Groebner route gives mu={om.mu}, family fixes {mu}")
        perturbed = gen.perturb(rng, g.coeffs)
        pgb = mb.groebner_basis(mb.Prebasis(om, perturbed).vectors(), order)
        pcodim = mb.macaulay_complement(pgb, order).mu
        border_deg = max(sum(t) for t, _ in om.border_terms)
        vectors = []
        for variant in range(CHECK_VARIANTS):
            row = []
            for off, count in DEGREE_VECTORS:
                for j in range(count):
                    pattern = PATTERNS * variant + j
                    v = gen.probe_vector(rng, nvars, rank, border_deg + off, pattern)
                    nf = mb.gb_normal_form(gb, mb.Vector(nvars, rank, dict(v)), order)
                    row.append((off, v, nf))
            vectors.append(row)
        bases.append({
            "family": family,
            "gens": plain,
            "nvars": nvars,
            "rank": rank,
            "ideals": [sorted(o.terms) for o in om.ideals],
            "coeffs": g.coeffs,
            "perturbed": perturbed,
            "perturbed_is_basis": pcodim == om.mu,
            "vectors": vectors,
            "gb": gb,
        })
    inputs = [
        (base["family"], base["gens"], base["perturbed"], [[p for _, p, _ in row] for row in base["vectors"]])
        for base in bases
    ]
    return {"order": order, "bases": bases, "inputs": inputs}


def check_schedule():
    """(variant, basis index) of each round: bases 2k and 2k+1, one of each
    family, with every vector variant in turn, for k = 0, 1, ...  Any prefix
    of whole blocks keeps the mix of families and variants, so the mix of a
    run does not hang on how many rounds fit in it."""
    return [(v, 2 * k + f) for k in range(CHECK_POOL // 2) for v in range(CHECK_VARIANTS) for f in range(2)]


def _prebasis(mb, order, base, coeffs):
    nvars = base["nvars"]
    om = mb.OrderModule([mb.OrderIdeal(nvars, ts) for ts in base["ideals"]], order, nvars=nvars)
    return mb.Prebasis(om, coeffs)


def build_check(mb, state):
    order = state["order"]
    built = []
    for base in state["bases"]:
        true = _prebasis(mb, order, base, base["coeffs"])
        pert = _prebasis(mb, order, base, base["perturbed"])
        built.append((base, true, pert))
    rounds = []
    for variant, b in check_schedule():
        base, true, pert = built[b]
        ops = []
        for name, g, verdict in (("true", true, True), ("perturbed", pert, base["perturbed_is_basis"])):
            ops.append(Op(
                f"verdict.buchberger.{name}",
                lambda g=g: mb.buchberger_check(g),
                lambda res, verdict=verdict: res[0] is verdict,
            ))
            ops.append(Op(
                f"verdict.commuting.{name}",
                lambda g=g: mb.commuting_check(mb.mult_matrices(g)),
                lambda res, verdict=verdict: res[0] is verdict,
            ))
        for off, plain, nf in base["vectors"][variant]:
            v = mb.Vector(base["nvars"], base["rank"], dict(plain))
            ops.append(Op(
                f"normal_remainder.deg+{off}",
                lambda v=v, g=true: mb.normal_remainder(g, v),
                lambda res, nf=nf: res == nf,
            ))
        rounds.append(ops)
    return rounds


def check_ratio_inputs(mb, state, nrounds):
    """(basis GB, vectors) of the normal-remainder ops in the first rounds,
    for timing gb_normal_form on the same vectors."""
    schedule = check_schedule()
    out = []
    for i in range(nrounds):
        variant, b = schedule[i % len(schedule)]
        base = state["bases"][b]
        vs = [mb.Vector(base["nvars"], base["rank"], dict(p)) for _, p, _ in base["vectors"][variant]]
        out.append((base["gb"], vs))
    return out


# ---------------------------------------------------------------------------
# cli: the worked examples through modborder.cli.main, in-process

DIVIDE_VECTOR = "x^3*e1 + x*y*e1 + x^3*y*e2"

# (name, command, example file, golden file stem, further arguments).
GOLDEN_CASES = (
    ("compute", "compute", "mbba.txt", "compute", []),
    ("divide", "divide", "prebasis7.txt", "divide", ["--vector", DIVIDE_VECTOR]),
    ("check", "check", "prebasis7.txt", "check", []),
    ("check.all_pairs", "check", "prebasis7.txt", "check", ["--mode", "all_pairs"]),
    ("multmat.basis4", "multmat", "basis4.txt", "multmat_basis4", []),
    ("multmat.prebasis7", "multmat", "prebasis7.txt", "multmat_prebasis7", []),
    ("groebner", "groebner", "mbba.txt", "groebner", []),
    ("quotient", "quotient", "quotient.txt", "quotient", []),
    ("subideal", "subideal", "subideal.txt", "subideal", []),
)

# (name, argv, exit code, stderr): malformed input and violated preconditions.
ERROR_CASES = (
    ("error.parse_file", ["compute", "malformed.txt"], 2,
     "parse error: line 5, col 3: component index 3 out of range 1..2\n"),
    ("error.parse_vector", ["divide", "prebasis7.txt", "--vector", "x*y"], 2,
     "parse error: monomial lacks a basis marker e<k>\n"),
    ("error.degree_cap", ["compute", "degree_cap.txt", "--max-degree", "6"], 3,
     "error: codimension possibly infinite (cap 6 reached)\n"),
    ("error.infinite_codim_cap8", ["compute", "hostile.txt", "--max-degree", "8"], 3,
     "error: codimension possibly infinite (cap 8 reached)\n"),
)

SAMPLES = 25


def _example(name):
    return str(EXAMPLES / name)


def prepare_cli(mb, seed):
    cases = []
    for name, cmd, example, golden, extra in GOLDEN_CASES:
        for fmt in ("pretty", "json"):
            suffix = "json" if fmt == "json" else "txt"
            out = (GOLDEN / f"{golden}.{suffix}").read_text(encoding="utf-8")
            argv = [cmd, _example(example)] + extra + ["--format", fmt]
            cases.append((f"{name}.{fmt}", argv, 0, out, ""))
    # Random division samples on a true basis; the seed only shows in the output.
    sample_argv = ["check", _example("basis4.txt"), "--samples", str(SAMPLES), "--seed", str(seed)]
    cases.append(("check.samples.pretty", sample_argv, 0,
                  f"a border basis\nsamples: {SAMPLES} ok (seed {seed})\n", ""))
    sample_json = {"border_basis": True, "samples": {"passed": True, "count": SAMPLES, "seed": seed}}
    cases.append(("check.samples.json", sample_argv + ["--format", "json"], 0,
                  json.dumps(sample_json, indent=2) + "\n", ""))
    for name, argv, code, err in ERROR_CASES:
        argv = [argv[0], _example(argv[1])] + argv[2:]
        cases.append((name, argv, code, "", err))
    random.Random(seed).shuffle(cases)
    return {"cases": cases, "inputs": cases}


def build_cli(mb, state):
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mb.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    ops = [
        Op(name, lambda argv=argv: run(argv), lambda res, want=(code, out, err): res == want)
        for name, argv, code, out, err in state["cases"]
    ]
    return [ops]


WORKLOADS = {
    "compute": (prepare_compute, build_compute),
    "check": (prepare_check, build_check),
    "cli": (prepare_cli, build_cli),
}
