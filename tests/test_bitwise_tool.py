"""Smoke test of tools/bitwise.py, the manifest that compares the outputs of
two checkouts bit for bit: its tiny corpus, written twice, compares equal,
and a changed, a missing and an error entry are each listed."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bitwise.py"


@pytest.fixture(scope="module")
def bitwise():
    spec = importlib.util.spec_from_file_location("bitwise", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def manifests(bitwise, tmp_path_factory):
    root = tmp_path_factory.mktemp("bitwise")
    paths = [str(root / f"run{i}.json") for i in (1, 2)]
    for path in paths:
        assert bitwise.main(["--write", path, "--tiny"]) == 0
    return paths


def test_tiny_corpus_repeats(bitwise, manifests, capsys):
    assert bitwise.main(["--compare", *manifests]) == 0
    assert capsys.readouterr().out == "0 differing name(s)\n"
    with open(manifests[0]) as fh:
        names = json.load(fh)
    assert {name.split("/")[0] for name in names} == {
        "cli.check", "cli.jacdet", "kron.kron_identity_suite",
        "kron.jacobian_matrix_functions_fd", "kron.matrix_function_general",
        "core.lu_solve", "core.det", "core.slogdet", "core.jacobi_eigen",
        *(f"odesens.{route}" for route in (
            "integrate_rk4", "forward_sensitivity", "grad_G_forward", "grad_G_adjoint",
            "grad_G_discrete_adjoint", "grad_G_discrete_data", "grad_G_fd"))}
    # an ODE route's numbers end with its rhs-component and integration counts
    assert names["odesens.grad_G_discrete_adjoint/steps16/seed0"]["values"][-2:] == [128.0, 2.0]
    # FD Jacobians end with their flop and solve counts, jacdet's at n = 3
    assert names["kron.jacobian_matrix_functions_fd/n3/seed0"]["values"][-2:] == [4554.0, 126.0]
    # the exactly singular member is an error with its pivot_index
    assert names["core.lu_solve/n2/duplicate_row"]["error"][0] == "SingularMatrixError"
    assert names["core.lu_solve/n2/duplicate_row"]["error"][2] == 1


def test_differences_are_listed(bitwise, manifests, tmp_path):
    with open(manifests[0]) as fh:
        changed = json.load(fh)
    entry = changed["core.det/n5/random"]
    entry["values"] = [entry["values"][0] * (1.0 + 2.0 ** -40)]
    entry["sha256"] = "changed"
    changed["core.lu_solve/n2/duplicate_row"] = {"sha256": "x", "values": [0.0]}
    del changed["cli.jacdet/seed0"]
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(changed))
    lines = bitwise.compare(manifests[0], str(path))
    assert len(lines) == 3
    assert lines[0].startswith("cli.jacdet/seed0: only in")
    name, rel = lines[1].split(": largest relative difference ")
    assert name == "core.det/n5/random" and 0.0 < float(rel) < 2.0 ** -39
    assert lines[2].startswith("core.lu_solve/n2/duplicate_row: ['SingularMatrixError'")
    assert bitwise.main(["--compare", manifests[0], str(path)]) == 1
