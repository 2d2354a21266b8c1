"""Source gates: each job that has one home in the package stays there.

Each gate is a set of line patterns over the ``.py`` files of some roots,
with the files allowed to match; any other matching line fails the gate.

* central difference: every central-difference quotient in the package and
  the tests goes through ``fdcheck.directional_fd``;
* determinant path: a rule that multiplies ``core.det(...)`` by a value
  overflows where the pivot product does, so det(A) * X goes through
  ``core.det_times``, which scales in log space;
* program reader: ``forward.as_outputs`` reads a program's outputs for
  forward's drivers, ``forward.evaluate`` and reverse's recording; every
  other module evaluates a program through one of those;
* scalar reader: a scalar program's one output is read by
  ``forward.scalar_output`` in every mode; indexing ``forward.evaluate``'s
  outputs, or a second ``scalar_output``, would decide it a second way;
* gap guard: ``core.require_gaps`` alone decides when two eigenvalues are
  too close, each caller passing its own scale;
* relative error: a verdict divides an error by the whole output's norm in
  ``fdcheck.relative_error``, so no module divides by ``abs(...)``, and
  none but ``cli.py`` (for ``eig``'s per-component table column, which the
  benchmark re-derives) by ``np.abs(...)`` or ``np.maximum(np.abs(...), ...)``.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ("src/matderiv",)

# gate -> [(pattern, roots, files allowed to match)]
GATES = {
    "central difference": [
        (r"/ ?\( ?2(\.0)? ?\* ?", SRC + ("tests",), {"src/matderiv/fdcheck.py"})],
    "determinant path": [(r"core\.det\([^)]*\) \*[^*]", SRC, set())],
    "program reader": [
        (r"as_outputs\(", SRC, {"src/matderiv/forward.py", "src/matderiv/reverse.py"})],
    "scalar reader": [
        (r"evaluate\(.*\)\[", SRC, set()),
        (r"def scalar_output\b|^\s*scalar_output\s*=", SRC, {"src/matderiv/forward.py"})],
    "gap guard": [(r"eigenvalues too close", SRC, {"src/matderiv/core.py"})],
    "relative error": [
        (r"/ ?abs\(", SRC, set()),
        (r"/ ?np\.(maximum\(np\.)?abs\(", SRC, {"src/matderiv/cli.py"})],
}


def violations(rules) -> list[str]:
    """Lines matching a rule's pattern outside its allowed files, as
    "path:line: text"."""
    hits = []
    for pattern, roots, allowed in rules:
        regex = re.compile(pattern)
        for root in roots:
            for path in sorted((ROOT / root).rglob("*.py")):
                name = path.relative_to(ROOT).as_posix()
                if name in allowed:
                    continue
                for i, line in enumerate(path.read_text().splitlines(), 1):
                    if regex.search(line):
                        hits.append(f"{name}:{i}: {line.strip()}")
    return hits


@pytest.mark.parametrize("gate", sorted(GATES))
def test_gate(gate):
    assert violations(GATES[gate]) == []
