"""Seeded scalar and vector programs for the AD workload.

The grammar is the guarded one of the test-suite generator: +, -, *, neg,
sin, cos, exp, integer powers, log(c + u*u), sqrt(c + u*u) and
a / (c + b*b) with c >= 0.5, so every tree is defined for any real input and
runs unchanged on floats, duals, tape variables and tape variables holding
duals.  The generator lives here, not in ``tests/``, so that editing a test
cannot change the workload.

A program is a sum of *terms*.  Each term applies one tree to a window of
the inputs; terms that share a tree are kept together as a group (the tree
plus an index matrix, one row per window), so the reference below can
evaluate a whole group with one vectorized numpy pass.  Light programs are a
single term reading every input; wide (heavy) programs are a small library
of trees laid over overlapping windows.

``reference_jvp`` is the benchmark's own hand-written chain rule for the
grammar.  It shares no code with the package and is the analytic action of
the triple check.  Trees are kept or redrawn on magnitudes alone (value,
intermediate values, first partials and, for second-order tasks, a
difference estimate of the second partials); agreement between
differentiation routes is never looked at.
"""

from __future__ import annotations

import numpy as np

from matderiv import scalarfn as sf

UNARY = ("sin", "cos", "exp", "log", "sqrt", "powi", "neg")
BINARY = ("add", "sub", "mul", "div")
MAGNITUDE_CAP = 100.0
# a tree such as cos(exp(54) - x) is bounded but has no float precision left
INTERMEDIATE_CAP = 1e4
MAX_LIGHT_INPUTS = 6
HESS_STEP = 1e-4


def random_tree(rng, n_inputs: int, depth: int):
    if depth == 0 or rng.random() < 0.28:
        if rng.random() < 0.75:
            return ("x", int(rng.integers(n_inputs)))
        return ("c", float(rng.uniform(-2.0, 2.0)))
    if rng.random() < 0.45:
        kind = BINARY[int(rng.integers(len(BINARY)))]
        a = random_tree(rng, n_inputs, depth - 1)
        b = random_tree(rng, n_inputs, depth - 1)
        if kind == "div":
            return ("div", a, b, float(rng.uniform(0.5, 2.5)))
        return (kind, a, b)
    kind = UNARY[int(rng.integers(len(UNARY)))]
    a = random_tree(rng, n_inputs, depth - 1)
    if kind in ("log", "sqrt"):
        return (kind, a, float(rng.uniform(0.5, 2.5)))
    if kind == "powi":
        return ("powi", a, int(rng.integers(2, 4)))
    return (kind, a)


def tree_inputs(node) -> set[int]:
    kind = node[0]
    if kind == "x":
        return {node[1]}
    if kind == "c":
        return set()
    out = tree_inputs(node[1])
    if kind in BINARY:
        out = out | tree_inputs(node[2])
    return out


def eval_tree(node, xs):
    """Evaluate through ``scalarfn``: the route every AD mode runs."""
    kind = node[0]
    if kind == "x":
        return xs[node[1]]
    if kind == "c":
        return node[1]
    if kind == "neg":
        return -eval_tree(node[1], xs)
    if kind in ("sin", "cos", "exp"):
        return getattr(sf, kind)(eval_tree(node[1], xs))
    if kind in ("log", "sqrt"):
        u = eval_tree(node[1], xs)
        return getattr(sf, kind)(node[2] + u * u)
    if kind == "powi":
        return sf.powi(eval_tree(node[1], xs), node[2])
    a = eval_tree(node[1], xs)
    b = eval_tree(node[2], xs)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    return a / (node[3] + b * b)


def jvp_tree(node, xs, ds, peak=None):
    """(value, directional derivative) by the chain rule; ``xs`` and ``ds``
    hold one numpy array (a value per window) for each tree input.  A list
    passed as ``peak`` collects the largest |value| of every node."""
    v, t = _jvp_node(node, xs, ds, peak)
    if peak is not None:
        peak.append(float(np.max(np.abs(v))))
    return v, t


def _jvp_node(node, xs, ds, peak):
    kind = node[0]
    if kind == "x":
        return xs[node[1]], ds[node[1]]
    if kind == "c":
        return node[1], 0.0
    if kind == "powi":
        u, t = jvp_tree(node[1], xs, ds, peak)
        k = node[2]
        return u**k, k * u ** (k - 1) * t
    if kind in UNARY:
        u, t = jvp_tree(node[1], xs, ds, peak)
        if kind == "neg":
            return -u, -t
        if kind == "sin":
            return np.sin(u), np.cos(u) * t
        if kind == "cos":
            return np.cos(u), -np.sin(u) * t
        if kind == "exp":
            e = np.exp(u)
            return e, e * t
        w = node[2] + u * u
        if kind == "log":
            return np.log(w), 2.0 * u * t / w
        r = np.sqrt(w)
        return r, u * t / r
    a, ta = jvp_tree(node[1], xs, ds, peak)
    b, tb = jvp_tree(node[2], xs, ds, peak)
    if kind == "add":
        return a + b, ta + tb
    if kind == "sub":
        return a - b, ta - tb
    if kind == "mul":
        return a * b, ta * b + a * tb
    w = node[3] + b * b
    return a / w, (ta * w - 2.0 * a * b * tb) / (w * w)


class Program:
    """Scalar program: a sum of tree terms over input windows.

    ``groups`` is a list of (tree, idx) with idx an int array of shape
    (terms, window width); ``x0`` is the base point.
    """

    def __init__(self, groups, x0):
        self.groups = groups
        self.x0 = np.asarray(x0, dtype=float)
        self._rows = [(tree, idx.tolist()) for tree, idx in groups]

    @property
    def n_inputs(self) -> int:
        return len(self.x0)

    def __call__(self, xs):
        total = None
        for tree, rows in self._rows:
            for row in rows:
                v = eval_tree(tree, [xs[i] for i in row])
                total = v if total is None else total + v
        return total

    def reference_jvp(self, x, d) -> tuple[float, float]:
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        val = 0.0
        tan = 0.0
        for tree, idx in self.groups:
            cols = [x[idx[:, j]] for j in range(idx.shape[1])]
            dcols = [d[idx[:, j]] for j in range(idx.shape[1])]
            v, t = jvp_tree(tree, cols, dcols)
            val += float(np.sum(v))
            tan += float(np.sum(t))
        return val, tan


class VectorProgram:
    """Vector program: one scalar program per output, sharing the inputs."""

    def __init__(self, outputs, x0):
        self.outputs = outputs
        self.x0 = np.asarray(x0, dtype=float)

    @property
    def n_inputs(self) -> int:
        return len(self.x0)

    def __call__(self, xs):
        return [p(xs) for p in self.outputs]

    def reference_jvp(self, x, d) -> np.ndarray:
        return np.array([p.reference_jvp(x, d)[1] for p in self.outputs])


def _bounded(*arrays) -> bool:
    for a in arrays:
        a = np.asarray(a, dtype=float)
        if not (np.all(np.isfinite(a)) and np.max(np.abs(a), initial=0.0) <= MAGNITUDE_CAP):
            return False
    return True


def _well_scaled(tree, cols, need_hessian: bool) -> bool:
    """Magnitude filter on value, intermediate values, first partials and
    (optionally) a central difference of the first partials, over every
    window at once."""
    w = len(cols)
    zero = [np.zeros_like(c) for c in cols]

    def partial(xcols, j):
        ds = list(zero)
        ds[j] = np.ones_like(cols[j])
        return jvp_tree(tree, xcols, ds)

    with np.errstate(all="ignore"):
        peak = []
        val = jvp_tree(tree, cols, zero, peak)[0]
        if not (_bounded(val) and np.isfinite(max(peak)) and max(peak) <= INTERMEDIATE_CAP):
            return False
        for j in range(w):
            if not _bounded(partial(cols, j)[1]):
                return False
        if need_hessian:
            for k in range(w):
                up = list(cols)
                dn = list(cols)
                up[k] = cols[k] + HESS_STEP
                dn[k] = cols[k] - HESS_STEP
                for j in range(w):
                    h = (partial(up, j)[1] - partial(dn, j)[1]) / (2 * HESS_STEP)
                    if not _bounded(h):
                        return False
    return True


def _draw_tree(rng, width: int, max_depth: int, cols, need_hessian: bool):
    for _ in range(500):
        tree = random_tree(rng, width, int(rng.integers(2, max_depth + 1)))
        if tree_inputs(tree) and _well_scaled(tree, cols, need_hessian):
            return tree
    raise RuntimeError("no well-scaled tree in 500 draws")


def light_program(rng, n: int, need_hessian: bool = False) -> Program:
    """One tree of depth 2-8 over all ``n`` inputs (progen-style traffic)."""
    x0 = rng.uniform(-1.5, 1.5, size=n)
    cols = [x0[j:j + 1] for j in range(n)]
    tree = _draw_tree(rng, n, 8, cols, need_hessian)
    return Program([(tree, np.arange(n)[None, :])], x0)


def light_vector_program(rng, n: int, m: int) -> VectorProgram:
    x0 = rng.uniform(-1.5, 1.5, size=n)
    cols = [x0[j:j + 1] for j in range(n)]
    outs = [Program([(_draw_tree(rng, n, 6, cols, False), np.arange(n)[None, :])], x0)
            for _ in range(m)]
    return VectorProgram(outs, x0)


WIDE_WIDTH = 3
WIDE_LIBRARY = 6


def _wide_groups(rng, x0, starts, need_hessian: bool):
    """Terms over windows (s, s+1, s+2) mod n for each start, spread over a
    small library of trees of depth 2-4."""
    n = len(x0)
    idx_all = (np.asarray(starts)[:, None] + np.arange(WIDE_WIDTH)[None, :]) % n
    owner = rng.integers(WIDE_LIBRARY, size=len(starts))
    groups = []
    for k in range(WIDE_LIBRARY):
        idx = idx_all[owner == k]
        if len(idx) == 0:
            continue
        cols = [x0[idx[:, j]] for j in range(WIDE_WIDTH)]
        groups.append((_draw_tree(rng, WIDE_WIDTH, 4, cols, need_hessian), idx))
    return groups


def wide_program(rng, n: int, need_hessian: bool = False) -> Program:
    x0 = rng.uniform(-1.5, 1.5, size=n)
    return Program(_wide_groups(rng, x0, np.arange(n), need_hessian), x0)


def wide_vector_program(rng, n: int, m: int) -> VectorProgram:
    """Output j sums the windows whose start is j modulo m, so together the
    outputs cover every window and the total work grows linearly in n."""
    x0 = rng.uniform(-1.5, 1.5, size=n)
    outs = [Program(_wide_groups(rng, x0, np.arange(j, n, m), False), x0)
            for j in range(m)]
    return VectorProgram(outs, x0)


def float_eval(program, x):
    """Plain-float evaluation (no derivatives) as a 1-D array."""
    out = program([float(v) for v in x])
    return np.atleast_1d(np.asarray(out, dtype=float))
