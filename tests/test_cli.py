import json
import subprocess
import sys

import pytest

from sobranch.cli import main

from conftest import src_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestClassify:
    def test_trivial_rho_so41(self, capsys):
        data = run_json(capsys, "classify", "--group", "SO(4,1)", "--weight", "0,0")
        assert data["count"] == 5
        variants = [r["descriptor"]["variant"] for r in data["representations"]]
        assert variants == ["finite", "finite", "nontempered", "nontempered", "discrete"]

    def test_table_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--group", "SO(4,1)", "--weight", "0,0", "--table"
        )
        assert code == 0
        assert "height" in out and "(0,0||)pm" in out

    def test_counts_to_twelve(self, capsys):
        for N in range(2, 13):
            group = f"SO({N},1)"
            weight = ",".join("0" for _ in range((N + 1) // 2))
            data = run_json(capsys, "classify", "--group", group, "--weight", weight)
            assert data["count"] == N + 1  # n + 2 with n = N - 1


class TestConvert:
    def test_langlands_to_enhanced(self, capsys):
        data = run_json(
            capsys,
            "convert",
            "--group",
            "SO(5,1)",
            "--langlands",
            "sigma=2,0;delta=+;lambda=0",
        )
        assert data["enhanced"] == {"weight": [1, 1, 0], "height": 1, "signature": "-"}
        assert data["theta"] == "(1||1,0)-"

    def test_enhanced_to_langlands(self, capsys):
        data = run_json(
            capsys, "convert", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;sig=-"
        )
        assert data["langlands"] == {
            "group": "SO(5,1)",
            "variant": "nontempered",
            "sigma": [2, 0],
            "delta": "+",
            "lambda": 0,
        }

    def test_json_roundtrip_through_schema(self, capsys):
        first = run_json(
            capsys, "convert", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;sig=-"
        )
        lang = first["langlands"]
        flag = f"sigma={','.join(map(str, lang['sigma']))};delta={lang['delta']};lambda={lang['lambda']}"
        second = run_json(capsys, "convert", "--group", lang["group"], "--langlands", flag)
        assert second == first


class TestScalarCommands:
    def test_height(self, capsys):
        data = run_json(
            capsys, "height", "--group", "SO(5,1)",
            "--langlands", "sigma=2,0;delta=+;lambda=0",
        )
        assert data["height"] == 1

    def test_signature(self, capsys):
        data = run_json(
            capsys, "signature", "--group", "SO(5,1)",
            "--langlands", "sigma=2,0;delta=+;lambda=0",
        )
        assert data["signature"] == "-"

    def test_hasse_standard(self, capsys):
        data = run_json(
            capsys, "hasse", "--group", "SO(5,1)", "--weight", "1,1,0",
            "--sig0", "+", "--standard",
        )
        assert [m["signature"] for m in data["members"]] == ["+", "+", "-"]


class TestBranch:
    def test_list(self, capsys):
        data = run_json(
            capsys, "branch", "--group", "SO(5,1)",
            "--enhanced", "1,1,0;h=1;sig=-", "--list",
        )
        assert data["count"] == 4

    def test_single_multiplicity(self, capsys):
        data = run_json(
            capsys, "branch", "--group", "SO(5,1)",
            "--enhanced", "1,1,0;h=1;sig=-", "--to", "2,0;h=1;sig=-",
        )
        assert data["multiplicity"] == 0

    def test_branch_fd(self, capsys):
        data = run_json(
            capsys, "branch-fd", "--group", "SO(4,1)", "--weight", "1,1", "--delta", "+"
        )
        assert data["components"] == [
            {"nu": [1, 1], "signature": "+", "self_dual": False},
            {"nu": [1, 0], "signature": "+", "self_dual": True},
        ]


class TestOtherCommands:
    def test_diagram(self, capsys):
        data = run_json(
            capsys, "diagram", "--group", "SO(4,1)",
            "--weight", "0,0", "--subweight", "0,0", "--sig", "+",
        )
        assert data["arrows"] == [[0, 0], [1, 0], [1, 1], [2, 1]]

    def test_gp_check(self, capsys):
        data = run_json(
            capsys, "gp-check", "--group", "SO(3,1)",
            "--big", "sigma=2;delta=+", "--small", "sigma=;lambda=2",
        )
        assert data["nonzero"] is True

    def test_period_documented_output(self, capsys):
        data = run_json(capsys, "period", "--n", "2", "--i", "1")
        assert data == {
            "n": 2,
            "i": 1,
            "sign": 1,
            "num": "1",
            "den": "1",
            "pi_quarters": 2,
            "pretty": "π^{1/2}",
        }

    def test_period_ktype(self, capsys):
        data = run_json(capsys, "period", "--n", "4", "--i", "1", "--ktype")
        assert data["minimal_k_type"]["dimension"] == 5

    def test_distinguished(self, capsys):
        data = run_json(
            capsys, "distinguished", "--group", "SO(5,1)", "--enhanced", "2,0,0;h=1;sig=+"
        )
        assert data["distinguished_for"] == "SO(4,1)"
        assert data["aq"]["inducing_degree"] == 3

    def test_chain(self, capsys):
        data = run_json(
            capsys, "chain", "--group", "SO(4,1)", "--enhanced", "0,0;h=2;sig=pm",
            "--target", "SO(2,1)", "--psi", "+",
        )
        assert data["found"] is True
        assert [t["group"] for t in data["chain"]] == ["SO(4,1)", "SO(3,1)", "SO(2,1)"]

    def test_cohomology_table_mode(self, capsys):
        data = run_json(capsys, "cohomology", "--n", "6", "--i", "2", "--delta", "+", "--j", "2")
        assert data["nonzero"] is True

    def test_cohomology_gate(self, capsys):
        data = run_json(
            capsys, "cohomology", "--group", "SO(5,1)",
            "--enhanced", "0,0,0;h=1;sig=+", "--gate", "0,0;h=1;sig=+",
        )
        assert data["degree"] == 1


class TestSelftest:
    def test_small_grid_passes(self, capsys, tmp_path):
        grids = tmp_path / "grids.json"
        grids.write_text(
            json.dumps(
                {
                    "dim-conservation": {"max_so": 5, "max_entry": 2},
                    "roundtrip": {"max_group": 5, "max_entry": 2},
                    "height-consistency": {"max_group": 5, "max_entry": 2},
                    "trivial-rho-diagrams": {"max_n": 4},
                    "chi-twist": {"max_group": 5, "max_entry": 2},
                    "height0-vs-finite": {"max_group": 5, "max_entry": 2},
                }
            )
        )
        data = run_json(capsys, "selftest", "--grids", str(grids))
        assert data["passed"] is True
        assert len(data["suites"]) == 6

    def test_single_suite_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "selftest", "--suite", "trivial-rho-diagrams", "--table"
        )
        assert code == 0
        assert "trivial-rho-diagrams" in out and "PASS" in out

    def test_single_suite_json(self, capsys):
        data = run_json(capsys, "selftest", "--suite", "trivial-rho-diagrams")
        assert [s["suite"] for s in data["suites"]] == ["trivial-rho-diagrams"]

    @pytest.mark.parametrize("fmt", ["--json", "--table"])
    def test_repeated_suite_runs_once(self, capsys, fmt):
        once = run_cli(capsys, "selftest", "--suite", "trivial-rho-diagrams", fmt)
        twice = run_cli(
            capsys, "selftest", "--suite", "trivial-rho-diagrams",
            "--suite", "trivial-rho-diagrams", fmt,
        )
        assert twice == once
        assert once[0] == 0

    def test_unknown_suite_key_in_grids_is_2(self, capsys, tmp_path):
        # A misspelled suite must not fall back to the default bounds.
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"trivial-rho-diagram": {"max_n": 99}}))
        code, out, err = run_cli(
            capsys, "selftest", "--grids", str(grids), "--suite", "trivial-rho-diagrams"
        )
        assert code == 2 and out == ""
        assert "unknown suite 'trivial-rho-diagram'" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_2(self, capsys, jobs):
        code, out, err = run_cli(capsys, "selftest", "--suite", "trivial-rho-diagrams", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err.startswith("error: --jobs")

    def test_jobs_output_matches_serial(self, capsys, tmp_path):
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"chi-twist": {"max_group": 5, "max_entry": 1}}))
        argv = ("selftest", "--grids", str(grids), "--suite", "chi-twist", "--suite", "roundtrip")
        serial = run_cli(capsys, *argv)
        parallel = run_cli(capsys, *argv, "--jobs", "2")
        assert parallel == serial
        assert serial[0] == 0

    @pytest.mark.parametrize(
        "jobs, cpus, workers",
        [("3", 8, [2]), ("2", 1, []), ("2", None, []), ("1", 8, [])],
    )
    def test_jobs_clamped(self, capsys, monkeypatch, jobs, cpus, workers):
        # K is clamped to min(K, suites, cpus); a pool of one is no pool.
        # The pool is a stand-in, so no process is started.
        import concurrent.futures
        import os

        seen = []

        class InlinePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        argv = ("selftest", "--suite", "trivial-rho-diagrams", "--suite", "dim-conservation")
        serial = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--jobs", jobs) == serial
        assert seen == workers

    def test_cli_import_leaves_process_pool_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, sobranch.cli; print('concurrent.futures' in sys.modules)"],
            env=src_env(), capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "False"


class TestExitCodes:
    def test_constraint_violation_is_3(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--group", "SO(5,1)", "--weight", "1,1,1")
        assert code == 3 and "trailing entry" in err

    def test_invalid_parameters_is_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--group", "SO(5,1)", "--weight", "1,0")
        assert code == 2 and "rank" in err

    def test_out_of_range_is_2(self, capsys):
        code, _, _ = run_cli(capsys, "period", "--n", "2", "--i", "9")
        assert code == 2

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--group", "SO(5,1)"])
        assert exc.value.code == 2

    def test_wall_parameter_is_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "convert", "--group", "SO(5,1)",
            "--langlands", "sigma=1,0;delta=+;lambda=0",
        )
        assert code == 3


MALFORMED_ARGV = [
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=x;sig=-"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=;sig=+"],
    ["signature", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1.5;sig=+"],
    ["convert", "--group", "SO(5,1)", "--langlands", "sigma=2,0;delta=+;lambda=q"],
    ["gp-check", "--group", "SO(3,1)", "--big", "sigma=2;delta=+", "--small", "sigma=;lambda=x"],
    ["distinguished", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=x;sig=+"],
    ["selftest", "--grids", "{tmp}/missing.json"],
    ["selftest", "--grids", "{tmp}/notes.md"],
    ["selftest", "--grids", "{tmp}/bad-bound.json", "--suite", "dim-conservation"],
    ["cohomology", "--gate", "0,0;h=1;sig=+"],
    ["cohomology", "--group", "SO(3,1)", "--gate", "0;h=1;sig=+"],
]


class TestMalformedInput:
    @pytest.mark.parametrize("argv", MALFORMED_ARGV, ids=lambda argv: " ".join(argv))
    def test_exit_2_without_traceback(self, argv, tmp_path):
        (tmp_path / "notes.md").write_text("# not JSON\n")
        (tmp_path / "bad-bound.json").write_text(
            json.dumps({"dim-conservation": {"max_so": "x", "max_entry": 2}})
        )
        proc = subprocess.run(
            [sys.executable, "-m", "sobranch.cli", *(a.format(tmp=tmp_path) for a in argv)],
            env=src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        argv = ("classify", "--group", "SO(6,1)", "--weight", "2,1,0")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_selftest_byte_identical(self, capsys):
        argv = ("selftest", "--suite", "trivial-rho-diagrams")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestSuiteFailureExitCode:
    def test_exit_4_on_failing_suite(self, capsys, monkeypatch):
        import sobranch.cli as cli_mod
        from sobranch.oracle import SuiteReport

        def fake_run_suite(name, bounds=None):
            return SuiteReport(name, 1, [{"boom": True}], 0.0)

        monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
        code, out, _ = run_cli(capsys, "selftest", "--suite", "roundtrip")
        assert code == 4
        assert json.loads(out)["passed"] is False
