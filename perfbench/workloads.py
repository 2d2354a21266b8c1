"""Task kinds and block plans of the three workloads.

A task produces a derivative (or a factorization, spectrum or report that a
derivative route rests on) through one matderiv layer, inside the timed
route ``run``, and is then verified by ``check`` outside it, against a
reference the timed route did not produce: numpy.linalg for the dense
kernels and rules, a second AD mode plus central differences for AD, the
benchmark's own chain rule (``programs.reference_jvp``) for the triple
check, and difference quotients certified by numpy residuals for the
adjoint routes.  Exact nominal counts are checked wherever the cost model
gives a closed form.

``check`` raises ``Miss`` when a result is wrong; that task fails.  It
raises ``Baseline`` as its last step, after every verification has passed,
when the task showed one of the documented baseline defects (see
README.md): the task counts as verified, and the defect is counted per
layer.

Each workload is a stream of blocks.  A block holds every task kind of the
workload, in a seeded order: a kind is one (layer route, class) pair that
the workload's definition lists.  Every heavy kind runs once a block and
every light kind ``LIGHT_REPEAT`` times, the same for all kinds of a
class.  Sizes are log-uniform in each kind's range and follow a
golden-ratio sequence, the same for every seed, so that any run covers the
range evenly and seeds differ in the data and the order, not in the sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import programs as pg
from matderiv import (
    cli,
    core,
    eigsens,
    fdcheck,
    forward,
    kron,
    linsys_adjoint,
    odesens,
    reverse,
    rules,
    second_order,
)

GOLDEN = 0.6180339887498949
WARMUP_KEY = 2**32 - 1  # seed word of the warm-up tasks; no block index reaches it
LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class Miss(Exception):
    """A task's result failed verification."""


class Baseline(Exception):
    """A verified task that showed a documented baseline defect."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Miss(what)


def close(got, ref, tol: float, what: str, scale=None) -> None:
    """max |got - ref| <= tol * scale, scale defaulting to max(1, max |ref|)."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    expect(got.shape == ref.shape, f"{what}: shape {got.shape} != {ref.shape}")
    err = float(np.max(np.abs(got - ref), initial=0.0))
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
    expect(err <= tol * scale, f"{what}: error {err:.3e} > {tol:.0e} * {scale:.3e}")


def unit(rng, n: int) -> np.ndarray:
    d = rng.standard_normal(n)
    return d / np.linalg.norm(d)


def run_cli(args):
    """``matderiv <args>`` in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in args])
    return code, buf.getvalue()


@dataclass(frozen=True)
class Kind:
    name: str
    cls: str                # "light" (per-call overhead) or "heavy" (per-element work)
    lo: int
    hi: int
    make: Callable          # (rng, size) -> inputs
    run: Callable           # (rt, inputs) -> result; the timed route
    check: Callable         # (rt, inputs, result, counts) -> None, or raises Miss
    step: int = 1

    def size(self, u: float) -> int:
        v = self.lo * (self.hi / self.lo) ** u
        return min(self.hi, max(self.lo, int(round(v / self.step)) * self.step))


# ---------------------------------------------------------------------------
# ad_programs: forward, reverse and second_order on generated programs

def _with_dirs(prog, rng):
    return SimpleNamespace(prog=prog, d=unit(rng, prog.n_inputs), w=None, rng=rng)


def make_light_scalar(rng, n):
    return _with_dirs(pg.light_program(rng, n), rng)


def make_light_scalar_h(rng, n):
    return _with_dirs(pg.light_program(rng, n, need_hessian=True), rng)


def make_wide_scalar(rng, n):
    return _with_dirs(pg.wide_program(rng, n), rng)


def make_wide_scalar_h(rng, n):
    return _with_dirs(pg.wide_program(rng, n, need_hessian=True), rng)


def make_light_vector(rng, n):
    t = _with_dirs(pg.light_vector_program(rng, n, int(rng.integers(1, 5))), rng)
    t.w = unit(rng, len(t.prog.outputs))
    return t


def make_wide_vector(rng, n):
    t = _with_dirs(pg.wide_vector_program(rng, n, 4), rng)
    t.w = unit(rng, 4)
    return t


def _record(prog):
    tape = reverse.Tape()
    ins = [tape.input(float(v)) for v in prog.x0]
    return tape, ins, prog(ins)


def run_gradient(rt, t):
    """reverse.gradient, with the tape recorded and swept by the benchmark so
    that recording and the backward sweep are timed apart."""
    tape, ins, out = rt.call("reverse.record", _record, t.prog,
                             units=lambda r: len(r[0].nodes))
    nodes = len(tape.nodes)
    adj = rt.call("reverse.backward", tape.backward, {out.index: 1.0}, units=nodes)
    return np.array([adj[v.index] for v in ins], dtype=float), nodes


def _settled(diff, steps=(1e-4, 1e-5, 1e-6)):
    """A central difference ``diff(h)`` at the step where it has settled: of
    the estimates at successive steps, the one closest to its predecessor.
    Generated programs can have large third derivatives, which make any one
    fixed step too coarse."""
    est = [np.atleast_1d(diff(h)) for h in steps]
    k = min(range(1, len(est)), key=lambda i: float(np.max(np.abs(est[i] - est[i - 1]))))
    return est[k]


def _central(f, x, d):
    return _settled(lambda h: (pg.float_eval(f, x + h * d) - pg.float_eval(f, x - h * d)) / (2 * h))


def check_gradient(rt, t, res, counts):
    g, nodes = res
    x, d = t.prog.x0, t.d
    gd = float(g @ d)
    scale = float(np.abs(g) @ np.abs(d)) + 1.0
    dd = rt.call("forward.directional_derivative", forward.directional_derivative,
                 t.prog, x, d, units=nodes)
    close(gd, dd[0], 1e-10, "gradient vs forward mode", scale)
    close(gd, _central(t.prog, x, d)[0], 1e-5, "gradient vs central difference", scale)


def run_jacobian(rt, t):
    return rt.call("forward.jacobian_forward", forward.jacobian_forward, t.prog, t.prog.x0)


def check_jacobian(rt, t, jac, counts):
    x = t.prog.x0
    m = len(t.prog.outputs)
    expect(jac.shape == (m, len(x)), f"jacobian shape {jac.shape}")
    scale = 1.0 + float(np.max(np.abs(jac)))
    # light: every row from reverse mode; heavy: one random row combination
    weights = np.eye(m) if len(x) <= pg.MAX_LIGHT_INPUTS else t.w[None, :]
    for w in weights:
        row = rt.call("reverse.vjp", reverse.vjp, t.prog, x, w)
        close(row, w @ jac, 1e-10, "jacobian vs reverse-mode vjp", scale)
    close(jac @ t.d, _central(t.prog, x, t.d), 1e-5,
          "jacobian vs central difference", float(np.max(np.abs(jac) @ np.abs(t.d))) + 1.0)


def _grad_fd(rt, prog, x, v):
    def diff(h):
        gp = rt.call("reverse.gradient", reverse.gradient, prog, x + h * v)
        gm = rt.call("reverse.gradient", reverse.gradient, prog, x - h * v)
        return (gp - gm) / (2 * h)
    return _settled(diff)


def run_hessian(rt, t):
    return rt.call("second_order.hessian", second_order.hessian, t.prog, t.prog.x0,
                   return_defect=True)


def check_hessian(rt, t, res, counts):
    hess, defect = res
    # the defect is relative to ||H||; judge it against max(||H||, 1) so that
    # a Hessian at roundoff level does not count as asymmetric
    norm = float(np.linalg.norm(hess))
    expect(defect * norm <= 1e-10 * max(norm, 1.0), f"hessian symmetry defect {defect:.3e}")
    scale = float(np.max(np.abs(hess) @ np.abs(t.d))) + 1.0
    close(hess @ t.d, _grad_fd(rt, t.prog, t.prog.x0, t.d), 1e-5,
          "hessian vs difference of reverse gradients", scale)


def run_hvp(rt, t):
    return rt.call("second_order.hvp", second_order.hvp, t.prog, t.prog.x0, t.d)


def check_hvp(rt, t, hv, counts):
    close(hv, _grad_fd(rt, t.prog, t.prog.x0, t.d), 1e-5,
          "hvp vs difference of reverse gradients")


def make_triple(rng, n):
    """A light vector program of 2-3 outputs whose Jacobian is not near zero:
    the triple check scores errors relative to the exact directional
    derivative, which is undefined when that is zero."""
    while True:
        prog = pg.light_vector_program(rng, n, int(rng.integers(2, 4)))
        jac = np.column_stack([prog.reference_jvp(prog.x0, e) for e in np.eye(n)])
        if np.linalg.norm(jac) >= 0.5:
            return _with_dirs(prog, rng)


def run_triple(rt, t):
    mode = "forward" if t.rng.random() < 0.5 else "reverse"
    x = t.prog.x0
    return rt.call("fdcheck.triple_check", fdcheck.triple_check, t.prog,
                   lambda d: t.prog.reference_jvp(x, d), mode, x,
                   n_directions=3, seed=int(t.rng.integers(2**31)))


def check_triple(rt, t, rep, counts):
    expect(len(rep.rows) == 3, "triple check row count")
    if rep.passed:
        return
    verdict = "triple check verdict: " + rep.summary().replace("\n", "; ")
    expect(all(r.ad_vs_analytic <= rep.ad_tol for r in rep.rows), verdict)
    # AD agrees with the benchmark's chain rule; only the forward difference missed
    raise Baseline(verdict)


def make_cli_seed(rng, size):
    return SimpleNamespace(seed=int(rng.integers(2**31)), size=size, rng=rng)


def run_hessian_demo(rt, t):
    return rt.call("cli.hessian-demo", run_cli, ["hessian-demo", "--seed", t.seed])


def check_hessian_demo(rt, t, res, counts):
    code, text = res
    rep = json.loads(text)
    expect(code == 0 and rep["passed"], f"hessian-demo exit {code}")
    x1, x2 = rep["point"]
    exact = [[-math.sin(x1) + 2.0 * x2**3, 6.0 * x1 * x2**2],
             [6.0 * x1 * x2**2, 6.0 * x1**2 * x2]]
    close(rep["hessian"], exact, 1e-10, "hessian-demo vs closed form")
    expect(rep["newton_classification"] == "minimum", "hessian-demo classification")


# ---------------------------------------------------------------------------
# dense_spectral: core dense kernels, eigsens, rules and kron

def _sym(rng, n):
    r = rng.standard_normal((n, n))
    return 0.5 * (r + r.T)


def _orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def _spread_spectrum(rng, n):
    """Symmetric S = Q diag(lam) Q^T with eigenvalue gaps of at least 0.6."""
    lam = 0.8 * (np.arange(n) - 0.5 * (n - 1)) + rng.uniform(-0.1, 0.1, size=n)
    q = _orthogonal(rng, n)
    return (q * lam) @ q.T


def make_sym(rng, n):
    return SimpleNamespace(s=_sym(rng, n), ref_s=None)


def run_jacobi(rt, t):
    return rt.call("core.jacobi_eigen", core.jacobi_eigen, t.s)


def check_jacobi(rt, t, dec, counts):
    n = len(t.s)
    t0 = time.perf_counter()
    lam_ref, _ = np.linalg.eigh(t.s)
    t.ref_s = time.perf_counter() - t0
    norm = np.linalg.norm(t.s)
    close(dec.lam, lam_ref, 1e-10, "jacobi eigenvalues vs eigh", max(norm, 1.0))
    close(dec.q.T @ dec.q, np.eye(n), 1e-10 * n, "jacobi orthogonality", 1.0)
    close((dec.q * dec.lam) @ dec.q.T, t.s, 1e-9, "jacobi reconstruction", max(norm, 1.0))


def _well_conditioned(rng, n):
    """U diag(s) V^T with singular values s in [1, 3], so difference
    quotients and tight relative tolerances stay meaningful."""
    return (_orthogonal(rng, n) * rng.uniform(1.0, 3.0, size=n)) @ _orthogonal(rng, n).T


def make_solve(rng, n):
    return SimpleNamespace(a=_well_conditioned(rng, n), b=rng.standard_normal(n), ref_s=None)


def lu_solve_flops(n: int) -> int:
    """Nominal flops of lu_solve with one right-hand side: elimination plus
    the two substitutions."""
    return sum(r + 2 * r * r for r in range(n)) + 2 * n * n


def run_lu(rt, t):
    return rt.call("core.lu_solve", core.lu_solve, t.a, t.b)


def check_lu(rt, t, x, counts):
    n = len(t.b)
    expect(counts == (lu_solve_flops(n), 1, 0, 0), f"lu_solve counts {counts}")
    t0 = time.perf_counter()
    ref = np.linalg.solve(t.a, t.b)
    t.ref_s = time.perf_counter() - t0
    close(x, ref, 1e-10, "lu_solve vs numpy.linalg.solve")


def make_det_light(rng, n):
    return SimpleNamespace(a=_well_conditioned(rng, n))


def make_det_heavy(rng, n):
    """det(S + nI): the product of pivots overflows once n passes about 144."""
    return SimpleNamespace(a=_sym(rng, n) + n * np.eye(n))


def run_det(rt, t):
    return rt.call("core.det", core.det, t.a)


def check_det(rt, t, det, counts):
    sign, logabs = np.linalg.slogdet(t.a)
    expect(det != 0.0 and np.sign(det) == sign, f"det sign {det} vs {sign}")
    if logabs > LOG_FLOAT_MAX:
        # |det| lies beyond the float range: inf is the float64 value, and
        # numpy.linalg.det returns it too; the missing log-det is the defect
        expect(math.isinf(det), f"det {det} finite with log|det| = {logabs:.1f}")
        raise Baseline(f"core.det overflow: log|det| = {logabs:.1f}")
    close(math.log(abs(det)), logabs, 1e-10, "log|det| vs slogdet")


def make_eig_pert(rng, n):
    return SimpleNamespace(s=_spread_spectrum(rng, n), ds=_sym(rng, n))


def run_eigsens(rt, t):
    dec = rt.call("eigsens.decompose", eigsens.decompose, t.s)
    pert = rt.call("eigsens.perturbation", eigsens.perturbation, dec, t.ds)
    dq = rt.call("eigsens.dq", eigsens.dq, dec, t.ds)
    return dec, pert, dq


def check_eigsens(rt, t, res, counts):
    dec, pert, dq = res
    h = 1e-6
    lp, vp = np.linalg.eigh(t.s + h * t.ds)
    lm, vm = np.linalg.eigh(t.s - h * t.ds)
    close(dec.lam, np.linalg.eigvalsh(t.s), 1e-10, "decompose eigenvalues vs eigvalsh")
    close(pert.dlambda, (lp - lm) / (2 * h), 1e-6, "dlambda vs eigvalsh difference")
    vp = vp * np.sign(np.sum(vp * dec.q, axis=0))
    vm = vm * np.sign(np.sum(vm * dec.q, axis=0))
    close(dq, (vp - vm) / (2 * h), 1e-5, "dq vs eigh eigenvector difference")
    close(dec.q @ pert.qt_dq, dq, 1e-12, "perturbation qt_dq vs dq")


def make_general(rng, n):
    return SimpleNamespace(a=_well_conditioned(rng, n), da=rng.standard_normal((n, n)))


def make_spd(rng, n):
    b = rng.standard_normal((n, n))
    return SimpleNamespace(a=b @ b.T / n + np.eye(n), da=rng.standard_normal((n, n)))


def run_d_inverse(rt, t):
    return rt.call("rules.d_inverse", rules.d_inverse, t.a, t.da)


def check_d_inverse(rt, t, out, counts):
    h = 1e-6
    fd = (np.linalg.inv(t.a + h * t.da) - np.linalg.inv(t.a - h * t.da)) / (2 * h)
    close(out, fd, 1e-6, "d_inverse vs inv difference")


def run_grad_det(rt, t):
    return rt.call("rules.grad_det", rules.grad_det, t.a)


def check_grad_det(rt, t, g, counts):
    ref = np.linalg.det(t.a) * np.linalg.inv(t.a).T
    close(g, ref, 1e-10, "grad_det vs det * inv^T")


def run_d_logdet(rt, t):
    return rt.call("rules.d_logdet", rules.d_logdet, t.a, t.da)


def check_d_logdet(rt, t, out, counts):
    h = 1e-6
    fd = (np.linalg.slogdet(t.a + h * t.da)[1] - np.linalg.slogdet(t.a - h * t.da)[1]) / (2 * h)
    close(out, fd, 1e-7, "d_logdet vs slogdet difference")


# (f, f') pairs, both strictly increasing so the Jacobian is nonsingular;
# they take floats and arrays alike
_MATFUNCS = (
    (np.exp, np.exp),
    (lambda v: v**3 + v, lambda v: 3 * v * v + 1),
)


def make_matfun(rng, n):
    f, fp = _MATFUNCS[int(rng.integers(len(_MATFUNCS)))]
    return SimpleNamespace(s=_spread_spectrum(rng, n), f=f, fp=fp)


def run_matfun(rt, t):
    return rt.call("kron.jacobian_matrix_function", kron.jacobian_matrix_function, t.f, t.s)


def check_matfun(rt, t, jac, counts):
    lam, q = np.linalg.eigh(t.s)
    diff = lam[:, None] - lam[None, :]
    same = np.abs(diff) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        lmat = np.where(same, t.fp(lam)[:, None] + 0 * diff,
                        (t.f(lam)[:, None] - t.f(lam)[None, :]) / diff)
    qq = np.kron(q, q)
    dk = qq @ np.diag(lmat.reshape(-1, order="F")) @ qq.T
    close(jac, dk, 1e-5, "matrix-function jacobian vs Daleckii-Krein")
    formula = rt.call("kron.theoretical_jacdet", kron.theoretical_jacdet, t.f, t.fp, lam)
    sign, logabs = np.linalg.slogdet(jac)
    expect(sign == np.sign(formula), "jacobian determinant sign")
    close(logabs, math.log(abs(formula)), 1e-4, "log|det J| vs theoretical_jacdet")


def run_kron_suite(rt, t):
    return rt.call("kron.kron_identity_suite", kron.kron_identity_suite,
                   seed=t.seed, trials=t.size)


def check_kron_suite(rt, t, worst, counts):
    expect(set(worst) == set(kron.KRON_IDENTITIES), "kron suite identities")
    expect(max(worst.values()) <= 1e-10, f"kron suite worst residual {max(worst.values()):.3e}")


def run_cli_eig(rt, t):
    return rt.call("cli.eig", run_cli, ["eig", "--n", t.size, "--seed", t.seed, "--format", "json"])


def check_cli_eig(rt, t, res, counts):
    code, text = res
    rep = json.loads(text)
    expect(code == 0 and rep["passed"], f"eig exit {code}")
    rows = np.array(rep["rows"], dtype=float)
    expect(rows.shape == (t.size, 4), "eig row count")
    rel = np.abs(rows[:, 1] - rows[:, 2]) / np.maximum(np.abs(rows[:, 2]), 1e-300)
    close(rows[:, 3], rel, 1e-12, "eig reported relative errors")
    expect(float(np.max(rel)) <= 1e-4, "eig dlambda vs difference")


def run_cli_fdsweep(rt, t):
    return rt.call("cli.fdsweep", run_cli, ["fdsweep", "--seed", t.seed, "--format", "json"])


def check_cli_fdsweep(rt, t, res, counts):
    code, text = res
    rows = np.array(json.loads(text)["rows"], dtype=float)
    expect(code == 0 and rows.shape == (17, 3), f"fdsweep exit {code}")
    scales, errs = rows[:, 0], rows[:, 2]
    best = scales[int(np.argmin(errs))]
    expect(1e-10 <= best <= 1e-6, f"fdsweep best scale {best:.0e}")
    # for f(A) = A^2 the forward-difference error is exactly linear in the
    # scale until roundoff takes over
    trunc = (scales <= 1.0) & (scales >= 1e-4)
    ratio = errs[trunc][:-1] / errs[trunc][1:]
    close(ratio, np.full(ratio.shape, 10.0), 0.05, "fdsweep truncation slope", 10.0)


def run_cli_check(rt, t):
    return rt.call("cli.check", run_cli, ["check", "--seed", t.seed])


def check_cli_check(rt, t, res, counts):
    code, text = res
    rep = json.loads(text)
    failed = [k for k, v in rep["suites"].items() if not v["passed"]]
    expect(code == 0 and rep["passed"] and not failed, f"check exit {code}, failed {failed}")


def run_cli_jacdet(rt, t):
    return rt.call("cli.jacdet", run_cli, ["jacdet", "--seed", t.seed])


def check_cli_jacdet(rt, t, res, counts):
    code, text = res
    rep = json.loads(text)
    expect(code == 0 and rep["passed"], f"jacdet exit {code}")
    for name, case in rep["cases"].items():
        rel = abs(case["fd_det"] - case["formula"]) / abs(case["formula"])
        close(case["rel_diff"], rel, 1e-12, f"jacdet {name} reported difference")
        expect(rel <= 1e-2 and case["fd_det"] * case["formula"] > 0, f"jacdet {name}")


# ---------------------------------------------------------------------------
# adjoint_long: thomas_solve, linsys_adjoint and the RK4 layer

def _tridiag_problem(rng, n):
    return linsys_adjoint.TridiagProblem(
        a=2.5 + rng.uniform(0.0, 1.0, size=n),
        p=0.5 * rng.uniform(-1.0, 1.0, size=n - 1),
        b=rng.standard_normal(n),
        c=rng.standard_normal(n),
    )


def make_tridiag(rng, n):
    return SimpleNamespace(prob=_tridiag_problem(rng, n), dp=unit(rng, n - 1))


def run_grad_g(rt, t):
    return rt.call("linsys_adjoint.grad_g", linsys_adjoint.grad_g, t.prob, units=t.prob.n)


def _certified_g(rt, prob, p):
    """g(p) from a thomas_solve whose residual numpy certifies."""
    x = rt.call("core.thomas_solve", core.thomas_solve, core.TridiagSym(prob.a, p), prob.b,
                units=prob.n)
    r = prob.a * x - prob.b
    r[:-1] += p * x[1:]
    r[1:] += p * x[:-1]
    expect(np.max(np.abs(r)) <= 1e-12 * (1.0 + np.max(np.abs(prob.b))), "thomas residual")
    s = float(prob.c @ x)
    return s * s


def check_tridiag_grad(rt, prob, grad, dp):
    h = 1e-4
    fd = (_certified_g(rt, prob, prob.p + h * dp) - _certified_g(rt, prob, prob.p - h * dp)) / (2 * h)
    close(float(grad @ dp), fd, 1e-6, "grad_g vs central difference",
          float(np.abs(grad) @ np.abs(dp)) + 1.0)


def check_grad_g(rt, t, grad, counts):
    n = t.prob.n
    expect(counts == (22 * n - 16, 2, 0, 0), f"grad_g counts {counts}")
    check_tridiag_grad(rt, t.prob, grad, t.dp)


def run_cli_tridiag(rt, t):
    return rt.call("cli.tridiag", run_cli, ["tridiag", "--n", t.size, "--seed", t.seed])


def check_cli_tridiag(rt, t, res, counts):
    code, text = res
    rep = json.loads(text)
    expect(rep["solve_count"] == 2, f"tridiag solve count {rep['solve_count']}")
    prob = linsys_adjoint.random_instance(t.size, seed=t.seed)
    check_tridiag_grad(rt, prob, np.asarray(rep["grad"]), unit(t.rng, t.size - 1))
    if code != 0:
        raise Baseline(f"tridiag forward-difference verdict, rel_err {rep['rel_err']:.2e}")


_DATA_TIMES = (0.25, 0.5, 0.75, 1.0)


def make_ode(rng, steps):
    p = np.array([rng.uniform(0.5, 1.5), rng.uniform(0.0, 1.0), rng.uniform(-0.6, -0.1)])
    ys = rng.uniform(0.0, 1.0, size=len(_DATA_TIMES))
    terms = [odesens.DataTerm(dgdu=lambda u, p, y=y: np.array([2.0 * (u[0] - y)]),
                              g=lambda u, p, y=y: (u[0] - y) ** 2) for y in ys]
    return SimpleNamespace(prob=odesens.reference_instance(p=p), n=steps, d=unit(rng, 3),
                           terms=terms)


def _forward_gradient(prob, traj, sens):
    p = prob.p
    vals = np.empty((len(traj.times), len(p)))
    for i, tt in enumerate(traj.times):
        u = traj.states[i]
        vals[i] = sens[i].T @ np.asarray(prob.dgdu(u, p, tt)) + np.asarray(prob.dgdp(u, p, tt))
    return odesens.simpson(vals, traj.dt)


def run_ode_forward(rt, t):
    traj, sens = rt.call("odesens.forward_sensitivity", odesens.forward_sensitivity,
                         t.prob, t.n, units=t.n)
    return _forward_gradient(t.prob, traj, sens)


def run_ode_adjoint(rt, t):
    prob = t.prob
    traj = rt.call("odesens.integrate_rk4", odesens.integrate_rk4, prob, t.n, units=t.n)
    v = rt.call("odesens.adjoint_solve", odesens.adjoint_solve, prob, traj, units=t.n)
    p = prob.p
    vals = np.empty((len(traj.times), len(p)))
    for i, tt in enumerate(traj.times):
        u = traj.states[i]
        vals[i] = np.asarray(prob.dgdp(u, p, tt)) - np.asarray(prob.dfdp(u, p, tt)).T @ v[i]
    return -np.asarray(prob.du0dp(p)).T @ v[0] + odesens.simpson(vals, traj.dt)


def _loss_fd(rt, t, h=1e-5):
    def loss(p):
        prob = t.prob.with_p(p)
        traj = rt.call("odesens.integrate_rk4", odesens.integrate_rk4, prob, t.n, units=t.n)
        return odesens.loss_G(prob, traj)
    return (loss(t.prob.p + h * t.d) - loss(t.prob.p - h * t.d)) / (2 * h)


def _rk4_rhs(steps: int, width: int = 1) -> int:
    """rhs_components of one integrate_rk4 pass (slopes at every node too)."""
    return (4 * steps + 1) * width


def check_ode_forward(rt, t, grad, counts):
    expect(counts == (0, 0, _rk4_rhs(t.n, 4), 1), f"forward_sensitivity counts {counts}")
    close(float(grad @ t.d), _loss_fd(rt, t), 1e-7, "forward sensitivity vs loss difference",
          float(np.abs(grad) @ np.abs(t.d)) + 1.0)


def check_ode_adjoint(rt, t, grad, counts):
    expect(counts == (0, 0, _rk4_rhs(t.n) + 4 * t.n, 2), f"adjoint counts {counts}")
    close(float(grad @ t.d), _loss_fd(rt, t), 1e-4, "adjoint vs loss difference",
          float(np.abs(grad) @ np.abs(t.d)) + 1.0)


def run_ode_discrete(rt, t):
    return rt.call("odesens.grad_G_discrete_data", odesens.grad_G_discrete_data,
                   t.prob, _DATA_TIMES, t.terms, t.n, units=t.n)


def check_ode_discrete(rt, t, grad, counts):
    expect(counts == (0, 0, _rk4_rhs(t.n) + 4 * t.n, 2), f"discrete adjoint counts {counts}")
    h = 1e-5

    def loss(p):
        return rt.call("odesens.loss_discrete", odesens.loss_discrete, t.prob.with_p(p),
                       _DATA_TIMES, t.terms, t.n, units=t.n)

    fd = (loss(t.prob.p + h * t.d) - loss(t.prob.p - h * t.d)) / (2 * h)
    close(float(grad @ t.d), fd, 1e-4, "discrete adjoint vs loss difference",
          float(np.abs(grad) @ np.abs(t.d)) + 1.0)


def run_ode_fd(rt, t):
    return rt.call("odesens.grad_G_fd", odesens.grad_G_fd, t.prob, t.n, units=t.n)


def check_ode_fd(rt, t, grad, counts):
    expect(counts == (0, 0, 6 * _rk4_rhs(t.n), 6), f"grad_G_fd counts {counts}")
    ref = run_ode_forward(rt, t)
    close(grad, ref, 1e-6, "grad_G_fd vs forward sensitivity",
          float(np.max(np.abs(ref))) + 1.0)


def run_cli_odegrad(rt, t):
    return rt.call("cli.odegrad", run_cli, ["odegrad", "--steps", t.size, "--seed", t.seed])


def check_cli_odegrad(rt, t, res, counts):
    code, text = res
    rep = json.loads(text)
    expect(code == 0 and rep["passed"], f"odegrad exit {code}")
    expect(rep["adjoint_integrations"] == 2, "odegrad adjoint integrations")
    gf, ga, gd = (np.asarray(rep[k]) for k in ("grad_forward", "grad_adjoint", "grad_fd"))
    for a, b, what in ((ga, gf, "adjoint"), (gd, gf, "fd"), (gd, ga, "fd vs adjoint")):
        close(a, b, 1e-3, f"odegrad {what} pairwise", float(np.linalg.norm(b)))
    ode = SimpleNamespace(prob=odesens.reference_instance(p=rep["p"]), n=t.size,
                          d=unit(t.rng, 3))
    close(float(gf @ ode.d), _loss_fd(rt, ode), 1e-7, "odegrad forward vs loss difference",
          float(np.abs(gf) @ np.abs(ode.d)) + 1.0)


# ---------------------------------------------------------------------------

WORKLOADS = {
    "ad_programs": [
        Kind("reverse.gradient", "light", 2, 6, make_light_scalar, run_gradient, check_gradient),
        Kind("forward.jacobian_forward", "light", 2, 6, make_light_vector, run_jacobian, check_jacobian),
        Kind("second_order.hessian", "light", 2, 6, make_light_scalar_h, run_hessian, check_hessian),
        Kind("second_order.hvp", "light", 2, 6, make_light_scalar_h, run_hvp, check_hvp),
        Kind("fdcheck.triple_check", "light", 2, 6, make_triple, run_triple, check_triple),
        Kind("cli.hessian-demo", "light", 1, 1, make_cli_seed, run_hessian_demo, check_hessian_demo),
        Kind("reverse.gradient", "heavy", 1000, 2000, make_wide_scalar, run_gradient, check_gradient),
        Kind("forward.jacobian_forward", "heavy", 64, 90, make_wide_vector, run_jacobian, check_jacobian),
        Kind("second_order.hessian", "heavy", 16, 40, make_wide_scalar_h, run_hessian, check_hessian),
    ],
    "dense_spectral": [
        Kind("eigsens", "light", 2, 5, make_eig_pert, run_eigsens, check_eigsens),
        Kind("rules.d_inverse", "light", 2, 5, make_general, run_d_inverse, check_d_inverse),
        Kind("rules.grad_det", "light", 2, 5, make_general, run_grad_det, check_grad_det),
        Kind("rules.d_logdet", "light", 2, 5, make_spd, run_d_logdet, check_d_logdet),
        Kind("core.lu_solve", "light", 2, 5, make_solve, run_lu, check_lu),
        Kind("core.det", "light", 2, 5, make_det_light, run_det, check_det),
        Kind("core.jacobi_eigen", "light", 2, 5, make_sym, run_jacobi, check_jacobi),
        Kind("cli.eig", "light", 2, 5, make_cli_seed, run_cli_eig, check_cli_eig),
        Kind("cli.fdsweep", "light", 1, 1, make_cli_seed, run_cli_fdsweep, check_cli_fdsweep),
        Kind("core.jacobi_eigen", "heavy", 16, 60, make_sym, run_jacobi, check_jacobi),
        Kind("core.lu_solve", "heavy", 80, 200, make_solve, run_lu, check_lu),
        Kind("core.det", "heavy", 80, 200, make_det_heavy, run_det, check_det),
        Kind("kron.jacobian_matrix_function", "heavy", 3, 5, make_matfun, run_matfun, check_matfun),
        Kind("kron.kron_identity_suite", "heavy", 4, 12, make_cli_seed, run_kron_suite, check_kron_suite),
        Kind("cli.jacdet", "heavy", 1, 1, make_cli_seed, run_cli_jacdet, check_cli_jacdet),
        Kind("cli.check", "heavy", 1, 1, make_cli_seed, run_cli_check, check_cli_check),
    ],
    "adjoint_long": [
        Kind("linsys_adjoint.grad_g", "light", 100, 2000, make_tridiag, run_grad_g, check_grad_g),
        Kind("odesens.forward_sensitivity", "light", 48, 200, make_ode, run_ode_forward, check_ode_forward, step=4),
        Kind("odesens.adjoint", "light", 48, 200, make_ode, run_ode_adjoint, check_ode_adjoint, step=4),
        Kind("odesens.grad_G_discrete_data", "light", 48, 200, make_ode, run_ode_discrete, check_ode_discrete, step=4),
        Kind("odesens.grad_G_fd", "light", 48, 200, make_ode, run_ode_fd, check_ode_fd, step=4),
        Kind("cli.tridiag", "light", 100, 1000, make_cli_seed, run_cli_tridiag, check_cli_tridiag),
        Kind("cli.odegrad", "light", 16, 64, make_cli_seed, run_cli_odegrad, check_cli_odegrad, step=4),
        Kind("linsys_adjoint.grad_g", "heavy", 20000, 100000, make_tridiag, run_grad_g, check_grad_g),
        Kind("odesens.forward_sensitivity", "heavy", 2000, 8000, make_ode, run_ode_forward, check_ode_forward, step=4),
        Kind("odesens.adjoint", "heavy", 2000, 8000, make_ode, run_ode_adjoint, check_ode_adjoint, step=4),
        Kind("odesens.grad_G_discrete_data", "heavy", 2000, 8000, make_ode, run_ode_discrete, check_ode_discrete, step=4),
        Kind("odesens.grad_G_fd", "heavy", 2000, 4000, make_ode, run_ode_fd, check_ode_fd, step=4),
    ],
}


# Light tasks per light kind in a block.  In adjoint_long the heavy tasks
# take about forty times as long as the light ones, so with one light task
# per kind a 30 s run held only about 65 light tasks and their median and
# tail spread by 0.12 between seeds; with four a block, light tasks and
# their checks take about 13 % of the window.
LIGHT_REPEAT = {"ad_programs": 1, "dense_spectral": 1, "adjoint_long": 4}


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    block: int
    kind: Kind
    size: int
    seed: tuple


class Plan:
    """The deterministic task stream of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.kinds = WORKLOADS[workload]
        self.repeat = LIGHT_REPEAT[workload]
        self.wl = sorted(WORKLOADS).index(workload)
        self.seed = seed

    def block(self, b: int) -> list[TaskSpec]:
        """Every heavy kind once, at the b-th size of its golden-ratio
        sequence, and every light kind ``repeat`` times, at the next
        ``repeat`` sizes of its own."""
        tasks = [(kind, kind.size((i * GOLDEN) % 1.0))
                 for kind in self.kinds
                 for i in ([b] if kind.cls == "heavy"
                           else range(b * self.repeat, (b + 1) * self.repeat))]
        order = np.random.default_rng([self.seed, self.wl, b]).permutation(len(tasks))
        return [TaskSpec(b * 1000 + pos, b, *tasks[k], (self.seed, self.wl, b, pos))
                for pos, k in enumerate(order)]

    def warmup(self) -> list[TaskSpec]:
        """One task of each light kind at its smallest size, on inputs the
        timed stream never uses."""
        return [TaskSpec(-1 - k, -1, kind, kind.lo, (self.seed, self.wl, WARMUP_KEY, k))
                for k, kind in enumerate(self.kinds) if kind.cls == "light"]
