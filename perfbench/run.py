"""Benchmark runner for modborder.

    python3 perfbench/run.py --workload compute|check|cli|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Each workload runs in one process as a closed loop with a
single caller.  Set-up runs from process start (the top of this script,
before its imports) to the first timed op: import modborder, make the seeded
inputs, compute the oracle answers and run one warm-up round.  Then:

--trace 0  runs rounds of ops for S seconds of op time, checks every result
           against its oracle and prints the end-to-end metrics.  Times are
           taken at a reference host speed (see calib.py): a reference
           kernel is timed around and during each op and during set-up.
--trace 1  runs a fixed number of rounds untraced, times the oracle route on
           the same inputs, runs the same rounds again under the outside-in
           tracer and prints the per-layer metrics.  Spans go to
           .perfbench_out/ in the checkout.

`setup_s` is the median of SETUPS set-ups: the measuring process's own and
SETUPS - 1 more, each in a fresh child process started after the timed loop.
The time spent sampling the reference kernel is left out of each.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  `--workload all` runs
every workload in its own child process.
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()  # set-up starts here, before the imports

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import calib
import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 3
# Per-op time limit in seconds, and the rounds a traced run covers.
LIMITS = {"compute": 30.0, "check": 10.0, "cli": 10.0}
TRACE_ROUNDS = {"compute": 3, "check": 16, "cli": 2}
HOSTILE_LIMIT = 3.0  # seconds allowed to the hostile-input child process
TAIL_BEYOND = 10


class OpTimeout(Exception):
    """An op ran past its time limit."""


def _alarm(signum, frame):
    raise OpTimeout


def import_modborder():
    """Import modborder and each of its layers from the checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mb = importlib.import_module("modborder")
    for name in layertrace.LAYERS:
        importlib.import_module(f"modborder.{name}")
    if not Path(mb.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"modborder imported from {mb.__file__}, not from {SRC}")
    return mb


def run_op(op, limit, sampler=None):
    """Run one op under a time limit: (latency in s, result, error or None).
    With a calib.Sampler, kernel samples are taken during the op and their
    time is left out of its latency."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    if sampler is not None:
        sampler.start()
    start = perf_counter()
    try:
        result = op.run()
        error = None
    except OpTimeout:
        result, error = None, f"over the {limit:g} s limit"
    except Exception as e:  # an unexpected exception is a failed op
        result, error = None, f"{type(e).__name__}: {e}"
    finally:
        if sampler is not None:
            sampler.stop()
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    spent = sampler.spent if sampler is not None else 0.0
    return end - start - spent, result, error


def verify(op, result, error):
    """None if the op's result matches its oracle, else the reason."""
    if error is not None:
        return error
    try:
        return None if op.check(result) else "result differs from the oracle"
    except Exception as e:
        return f"oracle check raised {type(e).__name__}: {e}"


def run_round(ops, limit, tracer=None, meter=None):
    """Run one round of ops: records of (op, latency, result, error).  With
    a calib.OpMeter, each op's kernel samples are kept in it."""
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        if meter is None:
            records.append((op, *run_op(op, limit)))
        else:
            records.append((op, *run_op(op, limit, meter.sampler)))
            meter.record(records[-1][1])
    return records


def setup(workload, seed):
    """Import, seeded inputs, oracle answers and one warm-up round.
    Returns ((raw, scaled) seconds since process start, mb, state, rounds).
    A set-up spans many swings of host speed, so it is scaled by the trimmed
    mean of the kernel samples taken during it."""
    sampler = calib.Sampler(calib.SETUP_INTERVAL)
    sampler.start()
    signal.signal(signal.SIGALRM, _alarm)
    prepare, build = workloads.WORKLOADS[workload]
    mb = import_modborder()
    state = prepare(mb, seed)
    rounds = build(mb, state)
    for op in rounds[0]:
        _, result, error = run_op(op, LIMITS[workload])
        reason = verify(op, result, error)
        if reason is not None:
            raise RuntimeError(f"warm-up op {op.kind} failed: {reason}")
    sampler.stop()
    raw = perf_counter() - T0 - sampler.spent
    return (raw, raw * calib.REF_S / calib.trimmed_mean(sampler.refs)), mb, state, rounds


SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "print(*run.setup(sys.argv[2], int(sys.argv[3]))[0])"
)


def child_setups(workload, seed):
    """(raw, scaled) set-up seconds of SETUPS - 1 fresh child processes, one
    after another."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(HERE), workload, str(seed)]
    out = []
    for _ in range(SETUPS - 1):
        proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
        raw, scaled = map(float, proc.stdout.split())
        out.append((raw, scaled))
    return out


HOSTILE_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); from modborder.cli import main; "
    "sys.exit(main(['compute', sys.argv[2]]))"
)


def hostile_op():
    """`compute` on an infinite-codimension input at the default degree cap,
    in a child process under HOSTILE_LIMIT.  Returns (seconds, failure or None)."""
    argv = [sys.executable, "-c", HOSTILE_CHILD, str(SRC), str(HERE / "examples" / "hostile.txt")]
    start = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=HOSTILE_LIMIT)
    except subprocess.TimeoutExpired:
        return perf_counter() - start, f"no exit within {HOSTILE_LIMIT:g} s (killed)"
    elapsed = perf_counter() - start
    if proc.returncode != 3 or proc.stdout:
        return elapsed, f"exit {proc.returncode}, expected 3 with empty stdout"
    return elapsed, None


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops
    beyond it: the (TAIL_BEYOND+1)-th largest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


def failures(records):
    out = []
    for op, _lat, result, error in records:
        reason = verify(op, result, error)
        if reason is not None:
            out.append((op.kind, reason))
    return out


def report_failures(failed):
    for kind, reason in failed[:10]:
        print(f"FAILED op {kind}: {reason}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds):
    """Rounds until `seconds` of op time at reference speed have passed
    (checked between rounds), so the number of ops run does not follow the
    host's speed.  Each round is checked against its oracles right after it,
    outside the timed region, so results do not pile up in memory."""
    first_setup, mb, state, rounds = setup(workload, seed)
    rss_setup = peak_rss_mb()
    limit = LIMITS[workload]
    meter = calib.OpMeter()
    lats, kinds, failed = [], [], []
    i = 0
    while sum(meter.scaled) < seconds:
        records = run_round(rounds[i % len(rounds)], limit, meter=meter)
        for op, lat, *_ in records:
            lats.append(lat)
            kinds.append(op.kind)
        failed += failures(records)
        i += 1
    report_failures(failed)
    rss = peak_rss_mb()
    hostile = hostile_op() if workload == "cli" else None
    durations = [first_setup] + child_setups(workload, seed)
    attempted = len(lats)
    scaled = meter.scaled

    def timed(lat, k):
        """Timed metrics from op latencies `lat` and set-up times d[k]."""
        tail_s, _ = tail(lat)
        return {
            "setup_s": statistics.median(d[k] for d in durations),
            "ops_per_s": (attempted - len(failed)) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1000.0,
            "op_tail_ms": tail_s * 1000.0,
        }

    metrics, raw = timed(scaled, 1), timed(lats, 0)
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {k: (v, units[k]) for k, v in metrics.items()}
    metrics["peak_rss_mb"] = (rss, "MB")
    _, pct = tail(lats)
    refs = meter.refs
    speed = calib.REF_S / statistics.median(refs)
    fail_count = len(failed) + (1 if hostile and hostile[1] else 0)
    fail_total = attempted + (1 if hostile else 0)
    print(f"workload {workload} seed {seed}: {attempted} ops in {i} rounds, {sum(scaled):.3f} s of op time at reference speed "
          f"({len(rounds)} distinct rounds, closed loop, 1 caller)")
    print(f"  host speed   {speed:.3f} of the reference (kernel median {statistics.median(refs) * 1e3:.3f} ms, "
          f"quartiles {', '.join(f'{q * 1e3:.3f}' for q in statistics.quantiles(refs, n=4))} ms)")
    for name, (value, unit) in metrics.items():
        beside = f"   raw {raw[name]:.4f}" if name in raw else ""
        print(f"  {name:12s} {value:12.4f} {unit:4s}{beside}")
    print(f"  {'op_tail_ms':12s} is p{pct:.1f} of {attempted} ops, {TAIL_BEYOND} ops beyond it")
    print(f"  setup runs   {', '.join(f'{d[1]:.3f}' for d in durations)} s, "
          f"raw {', '.join(f'{d[0]:.3f}' for d in durations)} s (this process first)")
    print(f"  peak_rss_mb  {rss_setup:.2f} MB after set-up, {rss:.2f} MB after the timed loop")
    if hostile:
        status = "ok" if hostile[1] is None else f"FAILED: {hostile[1]}"
        print(f"  hostile op   compute hostile.txt (default --max-degree): {hostile[0]:.3f} s, {status}")
    print(f"  {'fail_share':12s} {fail_count / fail_total:12.4f} share "
          f"({fail_count} of {fail_total} ops{', hostile op included' if hostile else ''})")
    by_kind = {}
    for kind, lat in zip(kinds, scaled):
        by_kind.setdefault(kind, []).append(lat)
    for kind in sorted(by_kind):
        ls = by_kind[kind]
        print(f"    {kind:34s} n={len(ls):4d} median={statistics.median(ls) * 1000:9.2f} ms")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def trace_run(workload, seed):
    _, mb, state, rounds = setup(workload, seed)
    limit = LIMITS[workload]
    nrounds = TRACE_ROUNDS[workload]
    schedule = [i % len(rounds) for i in range(nrounds)]
    start = perf_counter()
    plain = [rec for i in schedule for rec in run_round(rounds[i], limit)]
    wall_plain = perf_counter() - start

    ratios = {"ratio.mbba_over_groebner": 0.0, "ratio.divide_over_gbnf": 0.0}
    if workload == "compute":
        mbba = sum(lat for op, lat, *_ in plain if op.kind.startswith("mbba."))
        start = perf_counter()
        for _kind, gens in workloads.compute_ratio_inputs(mb, state, nrounds):
            mb.naive_border_basis(gens, state["order"])
        ratios["ratio.mbba_over_groebner"] = mbba / (perf_counter() - start)
    elif workload == "check":
        divide = sum(lat for op, lat, *_ in plain if op.kind.startswith("normal_remainder"))
        start = perf_counter()
        for gb, vectors in workloads.check_ratio_inputs(mb, state, nrounds):
            for v in vectors:
                mb.gb_normal_form(gb, v, state["order"])
        ratios["ratio.divide_over_gbnf"] = divide / (perf_counter() - start)

    modules = {name: getattr(mb, name) for name in layertrace.LAYERS}
    modules["modborder"] = mb
    tracer = layertrace.Tracer(modules)
    fresh = workloads.WORKLOADS[workload][1](mb, state)
    tracer.install()
    start = perf_counter()
    try:
        traced = [rec for i in schedule for rec in run_round(fresh[i], limit, tracer)]
    finally:
        wall_traced = perf_counter() - start
        tracer.uninstall()

    records = plain + traced
    failed = failures(records)
    report_failures(failed)
    hostile = hostile_op() if workload == "cli" else None

    metrics = {}
    for name, value in tracer.metrics().items():
        unit = "s" if name.endswith("_s") else "ratio" if "ratio" in name else "count"
        if name == "division.steps_per_divide":
            unit = "steps/call"
        metrics[name] = (value, unit)
    for name, value in ratios.items():
        metrics[name] = (value, "ratio")
    metrics["trace.overhead"] = (wall_traced / wall_plain, "ratio")
    metrics["cli.hostile.failed"] = (1 if hostile and hostile[1] else 0, "count")
    metrics["cli.hostile.exit_s"] = (hostile[0] if hostile else 0.0, "s")

    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(span_path)
    print(f"workload {workload} seed {seed}: traced {len(traced)} ops "
          f"({nrounds} rounds) in {wall_traced:.3f} s, untraced {wall_plain:.3f} s; "
          f"{len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:34s} {value:16.6f} {unit}")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in its own child process; output is passed through."""
    code = 0
    for workload in ("compute", "check", "cli"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["compute", "check", "cli", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "modborder" / "__init__.py").is_file():
        print(f"error: no modborder sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        result = trace_run(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
