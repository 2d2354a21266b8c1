"""Command-line driver: verification suites and reproducible experiment runs.

Every subcommand is one entry of the ``_COMMANDS`` table: its name and help,
the formats it can write (the first is the default ``--format``), its extra
integer flag (``--n`` or ``--steps``, validated by its argparse type), and a
runner mapping the parsed arguments to what is its own: (verdict, residuals,
other report fields, CSV text or None), the verdict a bool, or None for a
command that judges nothing.  The parser is built from the table, and
``main`` is the one place that builds a report: the envelope tool_version,
seed, config ({"subcommand": name} plus the size flag), residuals, then the
command's fields and ``passed``, with numpy values written as plain JSON.

Exit codes: 0 pass (or no verdict), 1 verification failure, 2 usage error,
3 numeric error (singularity / degeneracy / blow-up).  CSV outputs always
start with a header row.  All randomness flows from the --seed flag through
one PCG64 generator per run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import (
    __version__,
    core,
    counting,
    eigsens,
    fdcheck,
    forward,
    kron,
    linsys_adjoint,
    odesens,
    reverse,
    rules,
)
from . import scalarfn as sf
from . import second_order
from .errors import MatDerivError


def _plain(obj):
    """``json.dumps`` default: a numpy array or scalar as Python values."""
    return obj.tolist()


def _write(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _csv(header: str, rows) -> str:
    """The header line, then one line per row of numbers written by repr."""
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# check: every module's fast invariant suite

def _suite_kron(seed):
    worst = kron.kron_identity_suite(seed=seed, trials=50)
    return max(worst.values()), 1e-10, worst


def _suite_ad_cross_mode(seed):
    programs = [
        lambda xs: xs[0] * xs[1] + sf.sin(xs[0]),
        lambda xs: sf.exp(0.3 * xs[0]) + xs[1] * xs[1] * xs[2]
        - xs[2] / (xs[1] * xs[1] + 1.0),
        lambda xs: forward.babylonian(xs[0] * xs[0] + 1.0, 12) * xs[1],
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for prog in programs:
        x = rng.uniform(0.3, 1.5, size=3)
        g_rev = reverse.gradient(prog, x)
        jac = forward.jacobian_forward(prog, x)
        worst = max(worst, float(np.max(np.abs(g_rev - jac[0]))))
    return worst, 1e-10, {}


def _suite_matrix_rules(seed):
    detail = {e.name: fdcheck.rule_residual(e, seed) for e in rules.RULE_CHECKS}
    return max(detail.values()), fdcheck.RULE_TOL, detail


def _suite_tridiag(seed):
    _, _, _, _, rel, solves = _tridiag_gradient_check(64, seed)
    detail = {"fd_rel_err": rel, "solves": solves}
    return _tridiag_residual(rel, solves), _TRIDIAG_TOL, detail


def _suite_ode(seed):
    prob = odesens.reference_instance()
    gf = odesens.grad_G_forward(prob, 400)
    ga = odesens.grad_G_adjoint(prob, 400)
    rel = fdcheck.relative_error(ga, gf)
    return rel, _ODE_TOL, {"forward_vs_adjoint": rel}


def _suite_eig(seed):
    s, ds = _symmetric_instance(5, seed)
    dec = eigsens.decompose(s)
    dl = eigsens.dlambda(dec, ds)
    r1 = abs(float(np.sum(dl)) - float(np.trace(ds)))
    pert = eigsens.perturbation(dec, ds)
    r2 = float(np.max(np.abs(pert.qt_dq + pert.qt_dq.T)))
    pair = max(
        abs(dl[i] - float(np.sum(eigsens.grad_lambda(dec, i) * ds)))
        for i in range(5)
    )
    worst = max(r1, r2, pair)
    return worst, 1e-12, {"sum_rule": r1, "antisymmetry": r2, "gradient_pairing": pair}


def _suite_second_order(seed):
    _, _, _, r, defect = _hessian_vs_closed_form()
    return max(r, defect), _HESSIAN_TOL, {"closed_form": r, "symmetry_defect": defect}


def _suite_fd_sweep(seed):
    argmin = fdcheck.best_scale(_fdsweep_rows(seed))
    ok = 1e-10 <= argmin <= 1e-6
    return (0.0 if ok else 1.0), 0.5, {"argmin_scale": argmin}


_SUITES = [
    ("kron_identities", _suite_kron),
    ("ad_cross_mode", _suite_ad_cross_mode),
    ("matrix_rules_fd", _suite_matrix_rules),
    ("tridiag_adjoint", _suite_tridiag),
    ("ode_gradients", _suite_ode),
    ("eig_perturbation", _suite_eig),
    ("second_order", _suite_second_order),
    ("fd_sweep_shape", _suite_fd_sweep),
]


def run_check(args):
    """Run every module's invariant suite; exit 1 if any misses its tolerance."""
    suites = {}
    for name, fn in _SUITES:
        worst, tol, detail = fn(args.seed)
        suites[name] = {
            "passed": worst <= tol,
            "worst_residual": worst,
            "tolerance": tol,
            "detail": detail,
        }
    residuals = {name: s["worst_residual"] for name, s in suites.items()}
    return all(s["passed"] for s in suites.values()), residuals, {"suites": suites}, None


# ---------------------------------------------------------------------------
# fdsweep

def _fdsweep_rows(seed: int):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    d = fdcheck.gaussian_direction(rng, (4, 4))
    scales = [10.0 ** (-k) for k in range(0, 17)]
    return fdcheck.error_sweep(
        lambda m: m @ m, lambda dm: a @ dm + dm @ a, a, d, scales
    )


def run_fdsweep(args):
    rows = [[r.scale, r.perturbation_norm, r.relative_error]
            for r in _fdsweep_rows(args.seed)]
    return (None, {"min_rel_err": min(row[2] for row in rows)}, {"rows": rows},
            _csv("scale,perturbation_norm,relative_error", rows))


# ---------------------------------------------------------------------------
# tridiag

def _tridiag_gradient_check(n: int, seed: int):
    """Adjoint gradient of the seeded size-n tridiagonal instance: grad . dp
    along a random dp in [-1, 1]^(n-1) against ``fdcheck.directional_fd`` of g
    (a forward difference's O(|dp|) error raises false alarms at
    _TRIDIAG_TOL); returns (prob, grad, directional, fd, rel_err, solve_count)."""
    prob = linsys_adjoint.random_instance(n, seed=seed)
    with counting.tally() as counted:
        grad = linsys_adjoint.grad_g(prob)
    rng = np.random.default_rng(seed + 1)
    dp = rng.uniform(-1.0, 1.0, size=n - 1)
    directional = float(grad @ dp)
    g_at = lambda q: linsys_adjoint.g_eval(prob.with_p(q))
    fd = fdcheck.directional_fd(g_at, prob.p, dp)
    rel = abs(directional - fd) / abs(directional)
    return prob, grad, directional, fd, rel, counted.solves


_TRIDIAG_TOL = 1e-3


def _tridiag_residual(rel, solves):
    """The tridiagonal verdict's residual, judged against _TRIDIAG_TOL: the
    relative error, or 1.0 unless the adjoint gradient took its two solves."""
    return max(rel, 0.0 if solves == 2 else 1.0)


def run_tridiag(args):
    prob, grad, directional, fd, rel, solves = _tridiag_gradient_check(args.n, args.seed)
    fields = dict(
        g=linsys_adjoint.g_eval(prob),
        grad=grad,
        fd_directional=fd,
        directional=directional,
        rel_err=rel,
        solve_count=solves,
    )
    return _tridiag_residual(rel, solves) <= _TRIDIAG_TOL, {"fd_rel_err": rel}, fields, None


# ---------------------------------------------------------------------------
# odegrad

_ODE_TOL = 1e-3


def run_odegrad(args):
    steps = args.steps
    prob = odesens.reference_instance()
    traj = odesens.integrate_rk4(prob, steps)
    loss = odesens.loss_G(prob, traj)
    gf = odesens.grad_G_forward(prob, steps)
    with counting.tally() as counted:
        ga = odesens.grad_G_adjoint(prob, steps)
    gd = odesens.grad_G_fd(prob, steps)
    pair = {
        "forward_vs_adjoint": fdcheck.relative_error(ga, gf),
        "forward_vs_fd": fdcheck.relative_error(gd, gf),
        "adjoint_vs_fd": fdcheck.relative_error(gd, ga),
    }
    passed = all(v <= _ODE_TOL for v in pair.values()) and counted.integrations == 2
    fields = dict(
        p=prob.p,
        n_steps=steps,
        G=loss,
        grad_forward=gf,
        grad_adjoint=ga,
        grad_fd=gd,
        pairwise_rel_err=pair,
        adjoint_integrations=counted.integrations,
    )
    csv_text = None
    if args.format == "csv":  # the adjoint trajectory costs one more pass
        v = odesens.adjoint_solve(prob, traj)
        csv_text = _csv("t,u,v", zip(traj.times.tolist(), traj.states[:, 0].tolist(),
                                     v[:, 0].tolist()))
    return passed, pair, fields, csv_text


# ---------------------------------------------------------------------------
# jacdet

def _jacdet_case(f, f_prime, s):
    jac = kron.jacobian_matrix_function_fd(f, s)
    fd_det = core.det(jac)
    lam = core.jacobi_eigen(s).lam
    formula = kron.theoretical_jacdet(f, f_prime, lam)
    rel = abs(fd_det - formula) / abs(formula)
    return {"fd_det": fd_det, "formula": formula, "rel_diff": rel}


def run_jacdet(args):
    s = np.array([[float((i - j) ** 2) for j in range(3)] for i in range(3)])
    cases = {
        "square": (lambda t: t * t, lambda t: 2.0 * t),
        "exp": (math.exp, math.exp),
        "sin": (math.sin, math.cos),
    }
    out = {name: _jacdet_case(f, fp, s) for name, (f, fp) in cases.items()}
    passed = all(c["rel_diff"] <= 1e-2 and c["fd_det"] * c["formula"] > 0
                 for c in out.values())
    return passed, {name: c["rel_diff"] for name, c in out.items()}, {"cases": out}, None


# ---------------------------------------------------------------------------
# eig

def _symmetric_instance(n: int, seed: int):
    """The seeded symmetric S, shifted by diag(0..n-1) to spread its
    spectrum, and a symmetric direction dS."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    s = 0.5 * (raw + raw.T) + np.diag(np.arange(n, dtype=float))
    ds_raw = rng.standard_normal((n, n))
    return s, 0.5 * (ds_raw + ds_raw.T)


def run_eig(args):
    n = args.n
    s, ds = _symmetric_instance(n, args.seed)
    dec = eigsens.decompose(s)
    dl = eigsens.dlambda(dec, ds)
    fd = fdcheck.directional_fd(lambda m: core.jacobi_eigen(m).lam, s, ds)
    rel = np.abs(dl - fd) / np.maximum(np.abs(fd), 1e-300)
    rows = list(zip(range(n), dl.tolist(), fd.tolist(), rel.tolist()))
    worst = rel.max()
    return (worst <= 1e-4, {"worst_rel_err": worst}, {"rows": rows},
            _csv("index,dlambda,fd,rel_err", rows))


# ---------------------------------------------------------------------------
# hessian-demo

_HESSIAN_TOL = 1e-10


def _hessian_vs_closed_form():
    """Assembled Hessian of sin(x1) + x1^2 x2^3 at (0.7, 1.3) beside its
    closed form; returns (x, hessian, exact, rel_err, symmetry_defect)."""
    f = lambda xs: sf.sin(xs[0]) + xs[0] * xs[0] * sf.powi(xs[1], 3)
    x = np.array([0.7, 1.3])
    h, defect = second_order.hessian(f, x, return_defect=True)
    x1, x2 = x
    exact = np.array(
        [
            [-math.sin(x1) + 2.0 * x2**3, 6.0 * x1 * x2**2],
            [6.0 * x1 * x2**2, 6.0 * x1**2 * x2],
        ]
    )
    return x, h, exact, fdcheck.relative_error(h, exact), defect


def run_hessian_demo(args):
    x, h, exact, rel, defect = _hessian_vs_closed_form()
    bowl = lambda xs: xs[0] * xs[0] + 2.0 * xs[1] * xs[1]
    step = second_order.newton_min_step(bowl, np.array([1.0, -1.0]))
    passed = max(rel, defect) <= _HESSIAN_TOL and step.classification == "minimum"
    fields = dict(
        point=x,
        hessian=h,
        exact=exact,
        newton_step=step.step,
        newton_classification=step.classification,
    )
    return passed, {"closed_form_rel_err": rel, "symmetry_defect": defect}, fields, None


# ---------------------------------------------------------------------------
# the command table

class _Size(NamedTuple):
    """A subcommand's extra integer flag; its value must be >= 2 (and even)."""

    flag: str
    default: int
    help: str
    even: bool = False


class _Command(NamedTuple):
    """One subcommand; ``run`` maps the parsed arguments to (verdict: a bool,
    or None when the command judges nothing; residuals; the other report
    fields, in report order; CSV text or None)."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], tuple[bool | None, dict, dict, str | None]]
    formats: tuple[str, ...] = ("json",)  # the first is the default
    size: _Size | None = None


_COMMANDS = (
    _Command("check", "run every module's invariant suite", run_check),
    _Command("fdsweep", "error-vs-scale sweep for f(A)=A^2", run_fdsweep,
             ("csv", "json")),
    _Command("tridiag", "tridiagonal adjoint gradient report", run_tridiag,
             size=_Size("--n", 100, "problem size")),
    _Command("odegrad", "ODE gradient three-way comparison", run_odegrad,
             ("json", "csv"), _Size("--steps", 2000, "integration steps (even)",
                                    even=True)),
    _Command("jacdet", "matrix-function Jacobian determinants", run_jacdet),
    _Command("eig", "eigenvalue perturbation vs FD table", run_eig,
             ("csv", "json"), _Size("--n", 5, "problem size")),
    _Command("hessian-demo", "Hessian assembly demonstration", run_hessian_demo),
)


def _at_least(lo: int, even: bool = False):
    """argparse type: an integer >= lo, and even when asked."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError by this function's name
        if value < lo or (even and value % 2):
            raise argparse.ArgumentTypeError(
                f"must be {'even and ' if even else ''}>= {lo}, got {value}")
        return value
    return integer


@functools.cache  # built once per process: building costs more than a small run
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matderiv",
        description="Matrix-calculus derivative engine: verification suites "
        "and reproducible derivative experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd in _COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help)
        p.add_argument("--seed", type=_at_least(0), default=0,
                       help="RNG seed (PCG64), >= 0")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=cmd.formats, default=cmd.formats[0],
                       help=f"output format (default {cmd.formats[0]})")
        if cmd.size is not None:
            p.add_argument(cmd.size.flag, type=_at_least(2, cmd.size.even),
                           default=cmd.size.default, help=cmd.size.help)
        p.set_defaults(command=cmd)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = args.command
    try:
        passed, residuals, fields, csv_text = cmd.run(args)
    except MatDerivError as exc:
        sys.stderr.write(f"matderiv: numeric failure: {exc}\n")
        return 3
    if args.format == "csv":
        text = csv_text
    else:
        config = {"subcommand": cmd.name}
        if cmd.size is not None:
            key = cmd.size.flag.lstrip("-")
            config[key] = getattr(args, key)
        report = {"tool_version": __version__, "seed": args.seed, "config": config,
                  "residuals": residuals, **fields}
        if passed is not None:
            report["passed"] = passed
        text = json.dumps(report, indent=2, default=_plain)
    _write(text, args.out)
    return 1 if passed is not None and not passed else 0


if __name__ == "__main__":
    raise SystemExit(main())
