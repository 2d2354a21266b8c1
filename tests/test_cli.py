"""Tests for the command-line driver: exit codes, report schema, CSV shape.

All invocations go through cli.main(argv) in-process so exit codes and
stdout can be asserted directly.
"""

import json

import numpy as np
import pytest

from matderiv import cli, rules
from matderiv.errors import ContractError

_SUITE_NAMES = {
    "kron_identities",
    "ad_cross_mode",
    "matrix_rules_fd",
    "tridiag_adjoint",
    "ode_gradients",
    "eig_perturbation",
    "second_order",
    "fd_sweep_shape",
}


def _run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_passes_with_full_schema(self, capsys):
        code, report = _run_json(capsys, ["check"])
        assert code == 0
        assert report["passed"] is True
        for key in ("tool_version", "seed", "config", "residuals"):
            assert key in report
        assert set(report["suites"]) == _SUITE_NAMES
        for suite in report["suites"].values():
            assert suite["passed"] is True
            assert suite["worst_residual"] <= suite["tolerance"]

    def test_seed_flows_into_report(self, capsys):
        code, report = _run_json(capsys, ["check", "--seed", "7"])
        assert code == 0
        assert report["seed"] == 7

    def test_injected_sign_flip_fails_named_suite(self, capsys, monkeypatch):
        """Flipping the sign of the determinant gradient must trip the
        matrix-rule suite and turn the exit code nonzero."""
        true_grad = rules.grad_det
        monkeypatch.setattr(rules, "grad_det", lambda a: -true_grad(a))
        code, report = _run_json(capsys, ["check"])
        assert code == 1
        assert report["passed"] is False
        assert report["suites"]["matrix_rules_fd"]["passed"] is False
        untouched = _SUITE_NAMES - {"matrix_rules_fd"}
        assert all(report["suites"][name]["passed"] for name in untouched)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["odegrad", "--steps", "3"],
        ["odegrad", "--steps", "0"],
        ["tridiag", "--n", "1"],
        ["eig", "--n", "1"],
        ["no-such-command"],
        [],
        *[[cmd.name, "--seed", "-1"] for cmd in cli._COMMANDS],
        ["check", "--format", "csv"],
    ])
    def test_exit_code_two(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip()


class TestCommandTable:
    @pytest.mark.parametrize("cmd, fmt", [
        (cmd, fmt) for cmd in cli._COMMANDS for fmt in cmd.formats
    ], ids=lambda v: getattr(v, "name", v))
    def test_every_format_at_smallest_size(self, cmd, fmt, capsys):
        argv = [cmd.name, "--format", fmt]
        if cmd.size is not None:
            argv += [cmd.size.flag, "2"]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1)
        if fmt == "json":
            report = json.loads(out)
            for key in ("tool_version", "seed", "config", "residuals"):
                assert key in report
        else:
            header = out.splitlines()[0].split(",")
            assert all(name.isidentifier() for name in header)


class TestNumericFailureExit:
    def test_exit_code_three(self, capsys, monkeypatch):
        def boom(s):
            raise ContractError("injected degeneracy")

        monkeypatch.setattr(cli.eigsens, "decompose", boom)
        code = cli.main(["eig"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err


class TestFdsweep:
    def test_csv_header_and_rows(self, capsys):
        code = cli.main(["fdsweep"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scale,perturbation_norm,relative_error"
        assert len(lines) == 1 + 17
        for line in lines[1:]:
            scale, norm, err = (float(tok) for tok in line.split(","))
            assert scale > 0 and norm > 0 and err >= 0
        assert "np.float64" not in "\n".join(lines)

    def test_json_format(self, capsys):
        code, report = _run_json(capsys, ["fdsweep", "--format", "json"])
        assert code == 0
        assert len(report["rows"]) == 17
        assert report["residuals"]["min_rel_err"] <= 1e-6


class TestTridiag:
    def test_report_contents(self, capsys):
        code, report = _run_json(capsys, ["tridiag", "--n", "50"])
        assert code == 0
        assert report["passed"] is True
        assert report["solve_count"] == 2
        assert report["rel_err"] <= 1e-3
        assert len(report["grad"]) == 49
        assert report["config"]["n"] == 50

    @pytest.mark.parametrize("seed", [42, 58])
    def test_central_difference_clears_false_alarm(self, seed, capsys):
        """A forward difference misjudged these right gradients (rel_err
        1.3e-3 and 3.1e-3 against the 1e-3 tolerance)."""
        code, report = _run_json(capsys, ["tridiag", "--n", "300", "--seed",
                                          str(seed)])
        assert code == 0
        assert report["rel_err"] <= 1e-3


class TestOdegrad:
    def test_three_routes_agree(self, capsys):
        code, report = _run_json(capsys, ["odegrad", "--steps", "400"])
        assert code == 0
        pair = report["pairwise_rel_err"]
        assert set(pair) == {"forward_vs_adjoint", "forward_vs_fd",
                             "adjoint_vs_fd"}
        assert all(v <= 1e-3 for v in pair.values())
        assert report["adjoint_integrations"] == 2

    def test_csv_trajectory(self, capsys):
        code = cli.main(["odegrad", "--steps", "100", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,u,v"
        assert len(lines) == 1 + 101
        t0 = [float(tok) for tok in lines[1].split(",")]
        assert t0[0] == 0.0


class TestJacdet:
    def test_three_cases_pass(self, capsys):
        code, report = _run_json(capsys, ["jacdet"])
        assert code == 0
        assert report["passed"] is True
        assert set(report["cases"]) == {"square", "exp", "sin"}
        for case in report["cases"].values():
            assert case["rel_diff"] <= 1e-2
            assert case["fd_det"] * case["formula"] > 0

    def test_golden_values(self, capsys):
        _, report = _run_json(capsys, ["jacdet"])
        assert report["cases"]["square"]["formula"] == pytest.approx(4096.0)
        assert report["cases"]["exp"]["formula"] == pytest.approx(
            939.059, rel=1e-4)
        assert report["cases"]["sin"]["formula"] == pytest.approx(
            8.413463e-6, rel=1e-4)
        assert report["cases"]["sin"]["fd_det"] > 0


class TestEig:
    def test_csv_table(self, capsys):
        code = cli.main(["eig", "--n", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index,dlambda,fd,rel_err"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            toks = line.split(",")
            int(toks[0])
            rel = float(toks[3])
            assert rel <= 1e-4
        assert "np.float64" not in "\n".join(lines)

    def test_json_format(self, capsys):
        code, report = _run_json(capsys, ["eig", "--format", "json"])
        assert code == 0
        assert report["passed"] is True
        assert len(report["rows"]) == 5
        assert report["residuals"]["worst_rel_err"] <= 1e-4

    def test_large_n_difference_is_not_roundoff_bound(self, capsys):
        """A fixed step of 1e-6 along a dS whose norm grows like n left the
        difference quotient dominated by roundoff: this run failed with a
        worst relative error of 1.45e-3 before the step was scaled to the
        length of dS."""
        code, report = _run_json(capsys, ["eig", "--n", "120", "--seed", "4",
                                          "--format", "json"])
        assert code == 0
        assert report["residuals"]["worst_rel_err"] <= 1e-4


class TestHessianDemo:
    def test_report(self, capsys):
        code, report = _run_json(capsys, ["hessian-demo"])
        assert code == 0
        assert report["newton_classification"] == "minimum"
        assert report["residuals"]["closed_form_rel_err"] <= 1e-10
        assert report["residuals"]["symmetry_defect"] <= 1e-10
        assert np.array(report["hessian"]).shape == (2, 2)


class TestOutputFile:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = cli.main(["jacdet", "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(path.read_text())
        assert report["passed"] is True

    def test_csv_out_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code = cli.main(["fdsweep", "--out", str(path)])
        assert code == 0
        assert path.read_text().startswith(
            "scale,perturbation_norm,relative_error")
