#!/usr/bin/env python3
"""matderiv benchmark: closed-loop streams of verified-derivative tasks.

Run from the repository root:

    python3 perfbench/run.py --workload ad_programs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One client in one process sends each task only after the previous one has
finished and been verified.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs every block twice, untraced and traced, and prints the
per-layer metrics from the traced pass plus the tracing overhead.  Every
metric is printed by name with its unit; the last line of standard output is
one JSON object.  See README.md for the workloads and the metric map.

Every time measured in the window is rescaled to a reference host speed.  A
fixed calibration loop is timed between tasks, every ``CAL_EVERY_S`` through
the window, and every such time is multiplied by ``CAL_REF_S`` over the mean
calibration time.  The shared hosts this runs on drift in speed by tens of
percent over minutes, and the rescaling takes most of that drift out of the
figures.  Set-up, mostly imports, is rescaled the same way by the time
taken to import a fixed set of standard-library modules.
"""

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ad_programs", "dense_spectral", "adjoint_long")
COUNT_BLOCK = 0  # counts and per-layer calls/self time are summed over this block
SETUP_SAMPLES = 5  # cold set-ups per run: this process's own and four in fresh processes
CAL_REF_S = 1.2e-3  # reported times read as on a host where one calibration pass takes this
CAL_EVERY_S = 0.25  # calibrate before the first task that starts this long after the last
# Set-up's own calibration: standard-library modules that nothing else in the
# benchmark imports, imported just before set-up starts.  Import time drifts
# with the host as set-up (itself mostly imports) does, and the loop above
# does not track it.
IMPORT_CAL = (
    "email.parser", "http.client", "xml.dom.minidom", "xml.etree.ElementTree", "tarfile", "csv",
    "difflib", "unittest", "logging.handlers", "configparser", "urllib.request", "sqlite3",
    "pprint", "shlex", "html.parser", "plistlib",
)
IMPORT_CAL_REF_S = 0.07  # set-up times read as on a host where IMPORT_CAL imports this fast


def check_sources():
    pkg = ROOT / "src" / "matderiv"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no matderiv sources at {pkg}")
    return pkg


def import_matderiv():
    """Import matderiv from this checkout's ``src/``, never from elsewhere."""
    pkg = check_sources()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import matderiv

    if Path(matderiv.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported matderiv from {matderiv.__file__}, not {pkg}")
    return matderiv


def _calibration_pass(np, v):
    acc, cell = 0.0, [1.0]
    for i in range(2000):
        acc += (i * 1.5) % 7.0
        cell[0] = cell[0] * 0.5 + 1.0
    for _ in range(150):
        v = v * 1.0001 + 0.5
        acc += float(v[3]) + float(v.sum()) + float(v @ v)
    return acc + cell[0]


def calibrate() -> float:
    """Median wall time of five passes of a fixed mix of interpreter work and
    small numpy calls, the two costs that dominate matderiv's routes.  It
    uses no matderiv code, so a change to matderiv cannot move it."""
    import numpy as np

    v = np.ones(8)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        _calibration_pass(np, v)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


@dataclass
class Record:
    kind: str
    cls: str
    block: int
    latency: float | None = None   # seconds in the timed route; None if it raised
    check_s: float | None = None   # seconds in the check; None if it did not run
    counts: tuple | None = None    # (flops, solves, rhs_components, integrations)
    ok: bool = False
    baseline: str | None = None    # documented baseline defect the verified task showed
    error: str | None = None
    ref_s: float | None = None     # numpy.linalg time on the same input


class Runner:
    """Makes a task's inputs; runs a task: its route under one tally, then its check."""

    def __init__(self):
        import numpy as np
        from matderiv import counting
        import workloads as wl

        self.rng = np.random.default_rng
        self.counting = counting
        self.wl = wl
        self.reported: set = set()

    def make(self, spec):
        return spec.kind.make(self.rng(spec.seed), spec.size)

    def run(self, rt, spec, inp) -> Record:
        kind = spec.kind
        rec = Record(kind.name, kind.cls, spec.block)
        with rt.task(spec.task_id, kind.name, kind.cls, spec.block):
            try:
                with self.counting.tally() as c:
                    t0 = time.perf_counter()
                    res = kind.run(rt, inp)
                    rec.latency = time.perf_counter() - t0
                rec.counts = (c.flops, c.solves, c.rhs_components, c.integrations)
                rt.phase = "check"
                t0 = time.perf_counter()
                try:
                    kind.check(rt, inp, res, rec.counts)
                finally:
                    rec.check_s = time.perf_counter() - t0
                rec.ok = True
            except self.wl.Baseline as exc:  # raised after every check passed
                rec.ok, rec.baseline = True, str(exc)
            except self.wl.Miss as exc:
                rec.error = str(exc)
            except Exception as exc:  # a task that raises is a failed task
                rec.error = f"{type(exc).__name__}: {exc}"
                if (kind.name, kind.cls) not in self.reported:
                    traceback.print_exc(file=sys.stderr)
            finally:
                rt.phase = "route"
        rec.ref_s = getattr(inp, "ref_s", None)
        if rec.error and (kind.name, kind.cls, rec.error) not in self.reported:
            self.reported.add((kind.name, kind.cls, rec.error))
            self.reported.add((kind.name, kind.cls))
            print(f"perfbench: FAILED {kind.cls} {kind.name} size {spec.size} "
                  f"seed {spec.seed}: {rec.error}", file=sys.stderr)
        return rec


def tail(values):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def set_up(workload, seed):
    """One cold set-up: import numpy and matderiv, plan the stream, make block
    0's inputs and warm up (one task of each light kind).  Returns the
    runner, the plan, block 0's inputs and the time taken, rescaled by the
    import calibration timed just before."""
    loaded = [m for m in IMPORT_CAL if m in sys.modules]
    if loaded:
        sys.exit(f"perfbench: set-up calibration modules already imported: {loaded}")
    t0 = time.perf_counter()
    for name in IMPORT_CAL:
        importlib.import_module(name)
    cal_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (its import is part of set-up)

    import_matderiv()
    import tracing
    from workloads import Plan

    runner = Runner()
    plan = Plan(workload, seed)
    first = [runner.make(s) for s in plan.block(0)]
    for spec in plan.warmup():
        runner.run(tracing.Untraced(), spec, runner.make(spec))
    return runner, plan, first, (time.perf_counter() - t0) * IMPORT_CAL_REF_S / cal_s


def setup_sample_in_child(workload, seed) -> float:
    """One set-up time, from a fresh Python process."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import run; " \
           "print(run.set_up(sys.argv[2], int(sys.argv[3]))[3])"
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), workload, str(seed)],
                          stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up process exited with {proc.returncode}")
    return float(proc.stdout.split()[-1])


def end_to_end(recs, factor, task_s, setup_s, shares):
    """End-to-end metrics; every time in the window is multiplied by the host
    speed factor.  ``setup_s`` comes rescaled by its own calibration."""
    lat = {c: [r.latency * factor for r in recs if r.cls == c and r.latency is not None]
           for c in ("light", "heavy")}
    verified = sum(r.ok for r in recs)
    out = {"tasks_per_s": (verified / (task_s * factor), "1/s",
                           f"{verified} verified in {task_s:.2f} s of tasks; window: "
                           + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))}
    for c, v in lat.items():
        if not v:
            sys.exit(f"perfbench: no {c} task completed")
        t, pct = tail(v)
        out[f"{c}_p50_ms"] = (statistics.median(v) * 1e3, "ms", f"n={len(v)}")
        out[f"{c}_tail_ms"] = (t * 1e3, "ms", f"p{pct:.2f}, n={len(v)}")
    out["verified_ratio"] = (verified / len(recs), "ratio", f"{len(recs) - verified} of {len(recs)} failed")
    out["setup_s"] = (setup_s, "s", f"median of {SETUP_SAMPLES} cold set-ups")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (rss, "MB", "ru_maxrss")
    return out


SPAN_LAYERS = (
    "reverse.record", "reverse.backward", "reverse.gradient", "reverse.vjp",
    "forward.directional_derivative", "forward.jacobian_forward",
    "second_order.hvp", "second_order.hessian", "fdcheck.triple_check",
    "core.jacobi_eigen", "core.lu_solve", "core.det", "core.thomas_solve",
    "eigsens.decompose", "eigsens.perturbation", "eigsens.dq",
    "rules.d_inverse", "rules.grad_det", "rules.d_logdet",
    "kron.jacobian_matrix_function", "kron.theoretical_jacdet", "kron.kron_identity_suite",
    "linsys_adjoint.grad_g",
    "odesens.integrate_rk4", "odesens.forward_sensitivity", "odesens.adjoint_solve",
    "odesens.grad_G_discrete_data", "odesens.loss_discrete", "odesens.grad_G_fd",
    "cli.check", "cli.fdsweep", "cli.tridiag", "cli.odegrad", "cli.jacdet", "cli.eig",
    "cli.hessian-demo",
)
COUNTERS = ("flops", "solves", "rhs_components", "integrations")
# layers the benchmark calls only to verify a result; their figures come from
# check-phase spans, every other layer's from the timed route
CHECK_LAYERS = (
    "reverse.gradient", "reverse.vjp", "forward.directional_derivative", "core.thomas_solve",
    "kron.theoretical_jacdet", "odesens.loss_discrete",
)


# kinds whose verified tasks can show a baseline defect, and the name of the
# share of their tasks that did
BASELINE_SHARES = (
    ("core.det", "overflow_share"),
    ("fdcheck.triple_check", "fd_miss_share"),
    ("cli.tridiag", "fd_miss_share"),
)


def _baseline_share(recs, kind):
    r = [x for x in recs if x.kind == kind]
    return sum(x.baseline is not None for x in r) / len(r) if r else 0.0


def _lapack_ratio(recs, kind):
    r = [x.latency / x.ref_s for x in recs
         if x.kind == kind and x.cls == "heavy" and x.latency and x.ref_s]
    return statistics.median(r) if r else 0.0


def per_layer_specs():
    """(metric name, unit, fn(stats, records, run figures)) in output order."""
    def p50(name, cls=None, scale=1e6):
        return lambda L, R, x: L.p50(name, cls, scale)

    def per_unit(name, scale):
        return lambda L, R, x: L.per_unit(name, scale)

    specs = [
        ("reverse.record.us_per_node", "us", per_unit("reverse.record", 1e6)),
        ("reverse.backward.us_per_node", "us", per_unit("reverse.backward", 1e6)),
        ("reverse.tape_nodes", "count", lambda L, R, x: L.units("reverse.record")),
        ("forward.directional_derivative.us_per_node", "us",
         per_unit("forward.directional_derivative", 1e6)),
    ]
    for name in ("forward.jacobian_forward", "second_order.hessian", "core.jacobi_eigen",
                 "core.lu_solve"):
        for cls in ("light", "heavy"):
            specs.append((f"{name}.{cls}.p50_us", "us", p50(name, cls)))
    for name in ("second_order.hvp", "fdcheck.triple_check", "core.det", "eigsens.decompose",
                 "eigsens.perturbation", "eigsens.dq", "rules.d_inverse", "rules.grad_det",
                 "rules.d_logdet"):
        specs.append((f"{name}.p50_us", "us", p50(name)))
    specs += [
        ("core.jacobi_eigen.lapack_ratio", "ratio",
         lambda L, R, x: _lapack_ratio(R, "core.jacobi_eigen")),
        ("core.lu_solve.lapack_ratio", "ratio", lambda L, R, x: _lapack_ratio(R, "core.lu_solve")),
        ("kron.jacobian_matrix_function.p50_ms", "ms", p50("kron.jacobian_matrix_function", None, 1e3)),
        ("kron.kron_identity_suite.p50_ms", "ms", p50("kron.kron_identity_suite", None, 1e3)),
        ("core.thomas_solve.ns_per_row", "ns", per_unit("core.thomas_solve", 1e9)),
        ("linsys_adjoint.grad_g.ns_per_row", "ns", per_unit("linsys_adjoint.grad_g", 1e9)),
    ]
    for name in ("integrate_rk4", "forward_sensitivity", "adjoint_solve", "grad_G_discrete_data"):
        specs.append((f"odesens.{name}.us_per_step", "us", per_unit(f"odesens.{name}", 1e6)))
    specs.append(("odesens.grad_G_fd.p50_ms", "ms", p50("odesens.grad_G_fd", None, 1e3)))
    for name in SPAN_LAYERS:
        if name.startswith("cli."):
            specs.append((f"{name}.p50_ms", "ms", p50(name, None, 1e3)))
    for i, c in enumerate(COUNTERS):
        specs.append((f"counting.{c}", "count", lambda L, R, x, i=i: sum(
            r.counts[i] for r in R if r.block == COUNT_BLOCK and r.counts)))
    for name in SPAN_LAYERS:
        specs.append((f"{name}.calls", "count", lambda L, R, x, n=name: L.calls(n)))
        specs.append((f"{name}.self_s", "s", lambda L, R, x, n=name: L.self_s(n)))
    for name, unit in BASELINE_SHARES:
        specs.append((f"{name}.{unit}", "ratio",
                      lambda L, R, x, n=name: _baseline_share(R, n)))
    for part in ("route", "check", "make"):
        specs.append((f"window.{part}_share", "ratio", lambda L, R, x, p=part: x["shares"][p]))
    specs.append(("trace.overhead_ratio", "ratio", lambda L, R, x: x["overhead"]))
    return specs


def measure(args):
    samples = [setup_sample_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    runner, plan, first, setup_s = set_up(args.workload, args.seed)
    samples.append(setup_s)
    import tracing

    plain = tracing.Untraced()
    tracer = tracing.Tracer() if args.trace else None
    recs, traced_recs, cals = [], [], []
    wall = dict(route=0.0, check=0.0, make=0.0, window=0.0)  # untraced passes
    task_s = traced_s = 0.0  # wall seconds inside tasks, untraced and traced
    start = next_cal = time.perf_counter()
    deadline = start + args.seconds
    b = 0
    while time.perf_counter() < deadline or b <= COUNT_BLOCK:
        # stop at the first task past the deadline, but finish the count block;
        # a traced run runs each block untraced and traced, alternating which
        # pass goes first
        specs = plan.block(b)
        order = [plain] if tracer is None else [plain, tracer][:: 1 if b % 2 == 0 else -1]
        got = {}
        for rt in order:
            t0 = time.perf_counter()
            inputs = first if b == 0 and rt is order[0] else [runner.make(s) for s in specs]
            make_s = time.perf_counter() - t0
            out, run_s = [], 0.0
            for s, inp in zip(specs, inputs):
                t1 = time.perf_counter()
                if tracer is None and b > COUNT_BLOCK and t1 >= deadline:
                    break
                if t1 >= next_cal:
                    cals.append(calibrate())
                    next_cal = time.perf_counter() + CAL_EVERY_S
                    t1 = time.perf_counter()
                out.append(runner.run(rt, s, inp))
                run_s += time.perf_counter() - t1
            got[rt is tracer] = out
            if rt is tracer:
                traced_s += run_s
                continue
            task_s += run_s
            wall["route"] += sum(r.latency or 0.0 for r in out)
            wall["check"] += sum(r.check_s or 0.0 for r in out)
            wall["make"] += make_s
            wall["window"] += time.perf_counter() - t0
        if tracer is not None:
            for u, t in zip(got[False], got[True]):
                if t.ok and u.counts != t.counts:
                    t.ok, t.error = False, f"counts did not repeat: {u.counts} vs {t.counts}"
                    print(f"perfbench: FAILED {t.cls} {t.kind}: {t.error}", file=sys.stderr)
            traced_recs += got[True]
        recs += got[False]
        b += 1
    elapsed = time.perf_counter() - start
    factor = CAL_REF_S / statistics.fmean(cals)
    shares = {k: wall[k] / wall["window"] for k in ("route", "check", "make")}
    all_recs = recs + traced_recs
    failed = [r for r in all_recs if not r.ok]
    baseline = sum(r.baseline is not None for r in all_recs)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(all_recs)} tasks in {b} blocks, {elapsed:.2f} s; "
          f"{len(failed)} failed; {baseline} verified with a baseline defect; "
          f"host speed factor {factor:.4f} from {len(cals)} calibrations")
    if tracer is None:
        metrics = end_to_end(recs, factor, task_s, statistics.median(samples), shares)
    else:
        stats = tracing.LayerStats(tracer.spans, COUNT_BLOCK, factor, CHECK_LAYERS)
        figures = {"overhead": task_s / traced_s, "shares": shares}
        metrics = {name: (fn(stats, traced_recs, figures), unit, "")
                   for name, unit, fn in per_layer_specs()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"perfbench: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit:<6} {note}")
    result = {
        "correct": not failed,
        "attempted": len(all_recs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    code = 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        results[w] = json.loads(lines[-1])
        code = code or (0 if results[w]["correct"] else 1)
    print(json.dumps(results))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    check_sources()
    return run_all(args) if args.workload == "all" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
