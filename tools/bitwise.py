"""Bitwise manifest of matderiv outputs, to compare two checkouts.

Each named output of a fixed corpus is hashed (sha256 of its float64 bytes
with its shape, or of the text a CLI command prints) and its numbers are
kept, so that a comparison can say how far apart two differing outputs are.
An output that raises is recorded as its error type, message and
``pivot_index``.  The corpus:
  - ``matderiv check`` and ``matderiv jacdet`` JSON at seeds 0-9;
  - ``kron.kron_identity_suite`` dicts with their flop and solve counts at
    seeds 0-39 and 4, 7, 12 and 50 trials;
  - 2-D ``core.lu_solve``, ``det``, ``slogdet`` and ``jacobi_eigen`` on
    seeded matrices at n = 1-20, with the LU and Jacobi edge cases: pivot
    ties, exactly singular and zero-column matrices, entries near the float
    maximum, diagonal, zero and 2^(+-500)-scaled symmetric matrices;
  - the ODE routes ``odesens.integrate_rk4``, ``forward_sensitivity``,
    ``grad_G_forward``, ``grad_G_adjoint``, ``grad_G_discrete_adjoint``,
    ``grad_G_discrete_data`` and ``grad_G_fd``, with their rhs-component
    and integration counts, on the reference problem at three seeded p at
    16, 64, 400 and 2000 steps.

Run it once in each checkout, then compare (the script imports matderiv
from the ``src`` next to it):

    python tools/bitwise.py --write parent.json     # in the parent checkout
    python tools/bitwise.py --write change.json     # in the changed one
    python tools/bitwise.py --compare parent.json change.json

``--compare`` lists every name whose hash differs, or that one manifest
lacks, with the largest relative difference of its numbers, and exits 1 if
there is any.  ``--tiny`` writes a small corpus, for a quick self-check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from matderiv import cli, core, counting, kron, odesens  # noqa: E402
from matderiv.errors import MatDerivError  # noqa: E402


def _numbers(obj) -> list[float]:
    """The numbers of a parsed JSON value, depth first in key order."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in _numbers(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers(v)]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [float(obj)]
    return []


def _entry(produce) -> dict:
    """The manifest entry of one output: ``produce()`` returns text (a CLI
    report) or anything numpy reads as float64."""
    try:
        out = produce()
    except (MatDerivError, ArithmeticError, ValueError) as exc:
        error = [type(exc).__name__, str(exc), getattr(exc, "pivot_index", None)]
        return {"sha256": hashlib.sha256(repr(error).encode()).hexdigest(), "error": error}
    if isinstance(out, str):
        digest = hashlib.sha256(out.encode())
        values = _numbers(json.loads(out)) if out else []
    else:
        arr = np.asarray(out, dtype=np.float64)
        digest = hashlib.sha256(repr(arr.shape).encode() + arr.tobytes())
        values = arr.ravel().tolist()
    return {"sha256": digest.hexdigest(), "values": values}


def _cli(*args) -> str:
    """What ``matderiv <args>`` prints, run in process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main([str(a) for a in args])
    return buf.getvalue()


def _suite(seed: int, trials: int) -> list[float]:
    with counting.tally() as c:
        worst = kron.kron_identity_suite(seed=seed, trials=trials)
    return [*worst.values(), c.flops, c.solves]


def _square_cases(rng, n: int) -> dict:
    dup = rng.integers(-3, 4, (n, n)).astype(float)
    dup[-1] = dup[0]
    zero_col = rng.standard_normal((n, n))
    zero_col[:, n // 2] = 0.0
    return {
        "random": rng.standard_normal((n, n)),
        "ties": rng.choice([-1.0, 1.0], (n, n)),
        "duplicate_row": dup,
        "zero_column": zero_col,
        "near_overflow": rng.choice([-1.7e308, 1.7e308], (n, n)),
    }


def _symmetric_cases(rng, n: int) -> dict:
    raw = rng.uniform(-1.0, 1.0, (n, n))
    sym = 0.5 * (raw + raw.T)
    return {
        "random": sym,
        "diagonal": np.diag(np.diag(sym)),
        "zero": np.zeros((n, n)),
        "scaled_up": np.ldexp(sym, 500),
        "scaled_down": np.ldexp(sym, -500),
    }


def _kernels(n: int):
    """(name, produce) for the 2-D kernels at size n."""
    rng = np.random.default_rng(7000 + n)
    for case, a in _square_cases(rng, n).items():
        b = rng.standard_normal((n, 2))
        yield f"core.lu_solve/n{n}/{case}", lambda a=a, b=b: core.lu_solve(a, b)
        yield f"core.det/n{n}/{case}", lambda a=a: core.det(a)
        yield f"core.slogdet/n{n}/{case}", lambda a=a: core.slogdet(a)
    for case, s in _symmetric_cases(rng, n).items():
        def eigen(s=s):
            dec = core.jacobi_eigen(s)
            return np.concatenate((dec.q.ravel(), dec.lam))
        yield f"core.jacobi_eigen/n{n}/{case}", eigen


_ODE_ROUTES = ("integrate_rk4", "forward_sensitivity", "grad_G_forward", "grad_G_adjoint",
               "grad_G_discrete_adjoint", "grad_G_fd")
_DATA_TIMES = (0.25, 0.5, 0.75, 1.0)


def _ode_problem(seed: int):
    """The reference problem at a seeded p (``perfbench``'s ``make_ode``
    ranges) and point-data terms at _DATA_TIMES for it."""
    rng = np.random.default_rng(9000 + seed)
    prob = odesens.reference_instance(
        p=(rng.uniform(0.5, 1.5), rng.uniform(0.0, 1.0), rng.uniform(-0.6, -0.1)))
    terms = [odesens.DataTerm(dgdu=lambda u, p, y=y: np.array([2.0 * (u[0] - y)]))
             for y in rng.uniform(0.0, 1.0, len(_DATA_TIMES)).tolist()]
    return prob, terms


def _arrays(out) -> list:
    """A route's output as arrays: a Trajectory as its states and slopes, a
    tuple item by item."""
    if isinstance(out, tuple):
        return [a for item in out for a in _arrays(item)]
    if isinstance(out, odesens.Trajectory):
        return [out.states, out.slopes]
    return [out]


def _ode_route(route, *args) -> np.ndarray:
    """A route's outputs, flattened, then its rhs-component and integration
    counts."""
    with counting.tally() as c:
        out = route(*args)
    return np.concatenate([np.ravel(a) for a in _arrays(out)]
                          + [[c.rhs_components, c.integrations]])


def corpus(tiny: bool = False):
    """(name, produce) for every output of the manifest, in order."""
    seeds, suite_seeds, trials, sizes = range(10), range(40), (4, 7, 12, 50), range(1, 21)
    ode_seeds, ode_steps = range(3), (16, 64, 400, 2000)
    if tiny:
        seeds, suite_seeds, trials, sizes = range(1), range(2), (4,), (1, 2, 5, 17)
        ode_seeds, ode_steps = range(1), (16,)
    for seed in seeds:
        yield f"cli.check/seed{seed}", lambda seed=seed: _cli("check", "--seed", seed)
        yield f"cli.jacdet/seed{seed}", lambda seed=seed: _cli("jacdet", "--seed", seed)
    for seed in suite_seeds:
        for t in trials:
            yield (f"kron.kron_identity_suite/seed{seed}/trials{t}",
                   lambda seed=seed, t=t: _suite(seed, t))
    for n in sizes:
        yield from _kernels(n)
    for seed in ode_seeds:
        prob, terms = _ode_problem(seed)
        for m in ode_steps:
            for name in _ODE_ROUTES:
                yield (f"odesens.{name}/steps{m}/seed{seed}",
                       lambda route=getattr(odesens, name), prob=prob, m=m:
                       _ode_route(route, prob, m))
            yield (f"odesens.grad_G_discrete_data/steps{m}/seed{seed}",
                   lambda prob=prob, terms=terms, m=m:
                   _ode_route(odesens.grad_G_discrete_data, prob, _DATA_TIMES, terms, m))


def write(path: str, tiny: bool = False) -> None:
    # the kernels' edge cases overflow on purpose: their inf and NaN are the
    # outputs recorded, not a failure
    with np.errstate(all="ignore"):
        manifest = {name: _entry(produce) for name, produce in corpus(tiny)}
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=0, sort_keys=True)


def _largest_relative_difference(a: list, b: list) -> float:
    """max |a_i - b_i| / max(|a_i|, |b_i|) over the entries that differ (NaN
    equals NaN); inf where the counts differ or one side is not finite."""
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (x != x and y != y):
            continue
        rel = abs(x - y) / max(abs(x), abs(y))
        worst = max(worst, rel if rel == rel else math.inf)
    return worst


def compare(path_a: str, path_b: str) -> list[str]:
    """One line per name that differs between the two manifests."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            lines.append(f"{name}: only in {path_a if name in a else path_b}")
        elif a[name]["sha256"] != b[name]["sha256"]:
            if "values" in a[name] and "values" in b[name]:
                rel = _largest_relative_difference(a[name]["values"], b[name]["values"])
                lines.append(f"{name}: largest relative difference {rel:.3e}")
            else:
                lines.append(f"{name}: {a[name].get('error')} vs {b[name].get('error')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="write the manifest to FILE")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="list the outputs that differ between manifests A and B")
    parser.add_argument("--tiny", action="store_true", help="a small corpus (with --write)")
    args = parser.parse_args(argv)
    if args.write:
        write(args.write, args.tiny)
        return 0
    lines = compare(*args.compare)
    for line in lines:
        print(line)
    print(f"{len(lines)} differing name(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
