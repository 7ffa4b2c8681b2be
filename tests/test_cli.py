import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sobranch.cli import main

from conftest import src_env
from make_cli_corpus import replay


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

    def test_distinguished_below_the_smallest_group(self, capsys):
        code, out, err = run_cli(
            capsys, "distinguished", "--group", "SO(2,1)", "--enhanced", "0;h=1;sig=pm"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: (0||)pm of SO(2,1) has no distinguished subgroup: at height 1 it "
            "would lie below SO(2,1), the smallest group supported\n"
        )
        assert "SO(1,1)" not in err

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

    def test_unknown_bound_key_in_grids_is_2(self, capsys, tmp_path):
        # A misspelled bound must not fall back to its default.
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"trivial-rho-diagrams": {"max_m": 3}}))
        code, out, err = run_cli(capsys, "selftest", "--grids", str(grids))
        assert code == 2 and out == ""
        assert "unknown bound trivial-rho-diagrams.max_m" in err

    def test_non_integer_bound_in_grids_is_2(self, capsys, tmp_path):
        # The grid file's prefix on the library's message.
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"roundtrip": {"max_group": 3.9}}))
        code, out, err = run_cli(capsys, "selftest", "--grids", str(grids))
        assert code == 2 and out == ""
        assert f"grid file {str(grids)!r}: bound roundtrip.max_group must be an integer, got 3.9" in err

    @pytest.mark.parametrize(
        "suite, bounds",
        [
            ("chi-twist", {"max_entry": -1}),
            ("chi-twist", {"max_group": 2}),
            ("dim-conservation", {"max_so": -5}),
            ("trivial-rho-diagrams", {"max_n": 0}),
        ],
    )
    def test_grid_selecting_no_case_is_2(self, capsys, tmp_path, suite, bounds):
        # A suite that checked nothing used to print "0 cases  PASS" and exit 0.
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({suite: bounds}))
        for mode in ("--json", "--table"):
            code, out, err = run_cli(capsys, "selftest", "--grids", str(grids), "--suite", suite, mode)
            assert (code, out) == (2, "")
            assert err == f"error: the bounds of {suite!r} select no case; nothing was checked\n"

    def test_partial_grid_override_keeps_other_defaults(self, capsys, tmp_path):
        def cases(bounds):
            grids = tmp_path / "grids.json"
            grids.write_text(json.dumps({"chi-twist": bounds}))
            data = run_json(capsys, "selftest", "--grids", str(grids), "--suite", "chi-twist")
            return data["suites"][0]["cases_run"]

        assert cases({"max_group": 5}) == cases({"max_group": 5, "max_entry": 4})

    def test_deeply_nested_grids_is_2(self, capsys):
        # json's decoder recurses once per bracket: 1 000 of them ended in a
        # RecursionError traceback and exit 1.  The file holds 10 000.
        code, out, err = run_cli(capsys, "selftest", "--grids", DEEP_GRIDS)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read grid file {DEEP_GRIDS!r}: maximum recursion depth")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
    def test_endless_grids_file_is_2(self, capsys):
        # It was read until memory ran out: a MemoryError traceback and exit 1
        # under a 400 MB address-space limit.
        from sobranch.oracle import MAX_GRIDS_CHARS

        code, out, err = run_cli(capsys, "selftest", "--grids", "/dev/zero")
        assert (code, out) == (2, "")
        assert err == f"error: grid file '/dev/zero' is longer than {MAX_GRIDS_CHARS} characters\n"

    def test_grids_length_bound_is_inclusive(self, capsys, tmp_path):
        from sobranch.oracle import MAX_GRIDS_CHARS

        grids = tmp_path / "grids.json"
        argv = ["selftest", "--grids", str(grids), "--suite", "trivial-rho-diagrams"]
        text = json.dumps({"trivial-rho-diagrams": {"max_n": 3}})
        grids.write_text(text.ljust(MAX_GRIDS_CHARS))
        assert run_cli(capsys, *argv)[0] == 0
        grids.write_text(text.ljust(MAX_GRIDS_CHARS + 1))
        assert run_cli(capsys, *argv)[:2] == (2, "")

    def test_cli_import_leaves_process_pool_unloaded(self):
        # The rest of the import footprint too: no dataclasses (with inspect),
        # no fractions (with decimal), and none of the modules classify skips.
        assert loaded_after("import sobranch.cli", HEAVY_STDLIB + UNUSED_BY_CLASSIFY) == []


# A grids file of 10 000 "[", far past json's recursion limit in any process.
DEEP_GRIDS = str(Path(__file__).with_name("grids_nested_too_deep.json"))


HEAVY_STDLIB = ["concurrent.futures", "dataclasses", "inspect", "fractions", "decimal"]
UNUSED_BY_CLASSIFY = [
    "sobranch.branching", "sobranch.periods", "sobranch.cohomology", "sobranch.oracle",
]


def loaded_after(code, names):
    """Which of ``names`` a fresh interpreter has loaded after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys\n{code}\nprint(' '.join(n for n in {names!r} if n in sys.modules))"],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    return proc.stdout.split()


class TestImportFootprint:
    """A CLI call loads only what its subcommand uses."""

    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import sobranch", ["sobranch.weights", "sobranch.reps"]) == []

    def test_classify_call_loads_only_weights_and_reps(self):
        code = (
            "import contextlib, io, sobranch.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    sobranch.cli.main(['classify', '--group', 'SO(5,1)', '--weight', '1,1,0'])"
        )
        assert loaded_after(code, HEAVY_STDLIB + UNUSED_BY_CLASSIFY) == []

    def test_conversions_leave_fractions_unloaded(self):
        # Only ``period`` loads fractions: not convert, height, or a Weight.
        code = (
            "import contextlib, io, sobranch.cli\n"
            "from sobranch import Weight\n"
            "Weight((3, 1, 0))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in [\n"
            "        ['convert', '--group', 'SO(5,1)', '--langlands', 'sigma=2,0;delta=+;lambda=0'],\n"
            "        ['convert', '--group', 'SO(4,1)', '--enhanced', '1,0;h=2;sig=pm'],\n"
            "        ['height', '--group', 'SO(5,1)', '--enhanced', '1,1,0;h=1;sig=-'],\n"
            "        ['height', '--group', 'SO(5,1)', '--langlands', 'sigma=1,1;delta=-'],\n"
            "    ]:\n"
            "        assert sobranch.cli.main(argv) == 0, argv\n"
        )
        assert loaded_after(code, ["fractions", "decimal"]) == []

    def test_public_names_resolve_lazily(self):
        import sobranch

        for name in sobranch.__all__:
            value = getattr(sobranch, name)
            assert value is getattr(sys.modules[f"sobranch.{sobranch._MODULE_OF[name]}"], name)
        with pytest.raises(AttributeError):
            sobranch.no_such_name


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["period", "--n", "113", "--i", "56"],
            ["period", "--n", "113", "--i", "56", "--table"],
            ["classify", "--group", "SO(5,1)", "--weight", "1,1,0"],
            ["classify", "--group", "SO(5,1)", "--weight", "1,1,0", "--table"],
        ],
        ids=" ".join,
    )
    def test_closed_stdout_is_0_without_traceback(self, argv):
        # The reader stops at once, as under ``| head -c 1``: a long output
        # fails inside print, a short one in the flush that ends the call.
        proc = subprocess.Popen(
            [sys.executable, "-m", "sobranch.cli", *argv],
            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 0, err
        assert err == b""  # no traceback, nothing at all

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit set")
    def test_over_limit_period_refused_before_computing(self, capsys):
        # Forming this value took about 2 s before the call could refuse it.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "period", "--n", "2000", "--i", "1000")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == (
            f"error: period value has more than {sys.get_int_max_str_digits()} digits, "
            "the limit of Python's int-to-string conversion\n"
        )

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit set")
    def test_over_limit_period_numerator_refused_before_computing(self, capsys):
        # At 2i >= n+1 the numerator is (2i-n-1)!; this one is 299999!.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "period", "--n", "300000", "--i", "300000")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == (
            f"error: period value has more than {sys.get_int_max_str_digits()} digits, "
            "the limit of Python's int-to-string conversion\n"
        )

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit set")
    @pytest.mark.parametrize("n, i", [("100000", "99992"), ("1" + "0" * 400, "5")])
    def test_near_cancelling_period_refused_before_computing(self, capsys, n, i):
        # 99983! / (8!)^99991 nearly cancels, but its reduced numerator does
        # not: about 6.5 s went into forming it before the call refused.  An
        # n past float range used to end in an OverflowError traceback.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "period", "--n", n, "--i", i)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: period value has more than {sys.get_int_max_str_digits()} digits, "
            "the limit of Python's int-to-string conversion\n"
        )

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit set")
    @pytest.mark.parametrize("mode", ["--json", "--table"])
    @pytest.mark.parametrize("n, i", [("20000", "10000"), ("1000000", "500000")])
    def test_over_limit_ktype_dimension_refused(self, capsys, n, i, mode):
        # The first ended in a ValueError traceback; the second spent about
        # 11 s in math.comb, twice, before that.
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "period", "--n", n, "--i", i, "--ktype", mode)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == (
            f"error: minimal K-type dimension has more than {sys.get_int_max_str_digits()} "
            "digits, the limit of Python's int-to-string conversion\n"
        )

    def test_ktype_dimension_of_a_huge_ambient_prints(self, capsys):
        # C(n+1, 1) = n+1 is as long as n: no float bound may refuse it.
        n = 10 ** 3999
        data = run_json(capsys, "period", "--n", str(n), "--i", "1", "--ktype")
        assert data["minimal_k_type"]["dimension"] == n + 1
        code, out, err = run_cli(capsys, "period", "--n", str(n), "--i", "1", "--ktype", "--table")
        assert (code, err) == (0, "")
        assert out.endswith(f"  dim {n + 1}\n")

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit set")
    @pytest.mark.parametrize(
        "command, flag, template",
        [
            ("classify", "--weight", "{},0"),
            ("convert", "--enhanced", "{},0;h=1;sig=+"),
            ("height", "--enhanced", "{},0;h=1;sig=+"),
            ("convert", "--langlands", "sigma=0;delta=+;lambda=-{}"),
        ],
    )
    def test_integer_digit_limit_edge(self, capsys, command, flag, template):
        # An integer one digit short of the limit is accepted, and every
        # integer printed from it can be written; one at the limit is
        # refused, where sigma = s + 1 used to end in a ValueError traceback.
        limit = sys.get_int_max_str_digits()
        argv = [command, "--group", "SO(3,1)", flag]
        code, out, err = run_cli(capsys, *argv, template.format("9" * (limit - 1)))
        assert (code, err) == (0, "")
        json.loads(out)
        code, out, err = run_cli(capsys, *argv, template.format("9" * limit))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"has {limit} digits or more" in err

    @pytest.mark.parametrize("argv, what", [
        (["branch", "--group", "SO(5,1)", "--enhanced", f"1{'0' * 29},0,0;h=0;sig=+"], "targets"),
        (["branch-fd", "--group", "SO(5,1)", "--weight", f"1{'0' * 29},0,0", "--delta", "+"],
         "components"),
    ])
    def test_branch_output_past_the_bound_is_2(self, capsys, argv, what):
        # Listing 10^30 + 1 weights would never end; the closed-form size is
        # checked before anything is enumerated.
        from sobranch.cli import MAX_BRANCH_TARGETS

        for mode in ("--json", "--table"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv, mode)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (2, "")
            assert err == f"error: {argv[0]} would list more than {MAX_BRANCH_TARGETS} {what}\n"

    def test_branch_bound_is_inclusive(self, capsys, monkeypatch):
        import sobranch.cli as cli

        branch = ["branch", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;sig=-"]
        fd = ["branch-fd", "--group", "SO(4,1)", "--weight", "1,1", "--delta", "+"]
        for argv, size in ((branch, 4), (fd, 2)):  # the call lists exactly size items
            monkeypatch.setattr(cli, "MAX_BRANCH_TARGETS", size)
            assert run_cli(capsys, *argv)[0] == 0
            monkeypatch.setattr(cli, "MAX_BRANCH_TARGETS", size - 1)
            assert run_cli(capsys, *argv)[:2] == (2, "")

    @pytest.mark.parametrize("command", ["classify", "hasse", "diagram", "chain", "cohomology"])
    def test_answer_past_the_bound_is_2(self, capsys, command):
        # At SO(2001,1) these answers run to megabytes; their weight entries
        # are counted before any member is built.  A 31-digit cohomology --n
        # ended in an OverflowError traceback.
        from sobranch.cli import MAX_ANSWER_ENTRIES

        for mode in ("--json", "--table"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *HUGE_ANSWER[command], mode)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (2, "")
            assert err == f"error: {command} would list more than {MAX_ANSWER_ENTRIES} weight entries\n"

    @pytest.mark.parametrize("argv, weights", [
        (["classify", "--group", "SO(4,1)", "--weight", "0,0"],
         lambda data: [r["enhanced"]["weight"] for r in data["representations"]]),
        (["hasse", "--group", "SO(5,1)", "--weight", "1,1,0"],
         lambda data: [m["weight"] for m in data["members"]]),
        (["diagram", "--group", "SO(4,1)", "--weight", "0,0", "--subweight", "0,0"],
         lambda data: [m["weight"] for m in data["top"] + data["bottom"]]),
        (["chain", "--group", "SO(6,1)", "--enhanced", "1,1,0;h=1;sig=+", "--target", "SO(3,1)",
          "--psi", "+"],
         lambda data: [node["weight"] for node in data["chain"]]),
        *((["cohomology", "--n", n, "--i", "1", "--j", "1"],
           lambda data: [data["left"]["param"]["weight"], data["left"]["coefficient"],
                         data["right"]["coefficient"]]) for n in ("4", "5")),
    ])
    def test_answer_bound_is_inclusive(self, capsys, monkeypatch, argv, weights):
        # The closed form counts exactly the weight entries the answer lists.
        import sobranch.cli as cli

        size = sum(map(len, weights(run_json(capsys, *argv))))
        monkeypatch.setattr(cli, "MAX_ANSWER_ENTRIES", size)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "MAX_ANSWER_ENTRIES", size - 1)
        assert run_cli(capsys, *argv)[:2] == (2, "")

    def test_period_at_height_zero_is_immediate(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "period", "--n", "1000000", "--i", "0")
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "")
        assert json.loads(out)["pretty"] == "1"

    def test_wall_parameter_is_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "convert", "--group", "SO(5,1)",
            "--langlands", "sigma=1,0;delta=+;lambda=0",
        )
        assert code == 3


# Calls whose answer would pass ``cli.MAX_ANSWER_ENTRIES``: SO(2001,1) has rank 1001, and
# cohomology at n = 10^30 would list zero weights of rank about n/2.
HUGE_ANSWER = {
    "classify": ["classify", "--group", "SO(2001,1)", "--weight", ",".join(["0"] * 1001)],
    "hasse": ["hasse", "--group", "SO(2001,1)", "--weight", ",".join(["0"] * 1001)],
    "diagram": ["diagram", "--group", "SO(2001,1)", "--weight", ",".join(["0"] * 1001),
                "--subweight", ",".join(["0"] * 1000)],
    "chain": ["chain", "--group", "SO(2001,1)", "--enhanced", ",".join(["0"] * 1001) + ";h=0;sig=+",
              "--target", "SO(2,1)", "--psi", "+"],
    "cohomology": ["cohomology", "--n", str(10**30), "--i", "1", "--j", "1"],
}


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
    ["cohomology", "--n", "4", "--i", "1", "--j", "1", "--coeff", "9,9", "--subcoeff", "x"],
    ["cohomology", "--n", "4", "--i", "1", "--j", "1", "--group", "SO(5,1)"],
    ["cohomology", "--n", "4", "--i", "1", "--j", "1", "--enhanced", "0,0,0;h=1;sig=+"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;h=2;sig=+"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;weight=1,1,0;h=1;sig=+"],
    ["convert", "--group", "SO(5,1)", "--langlands", "sigma=2,0;delta=+;delta=-"],
    ["period", "--n", "0", "--i", "0"],
    ["period", "--n", "-1", "--i", "0", "--ktype"],
    ["period", "--n", "200", "--i", "100"],  # past Python's int-to-string digit limit
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


GROUPS = ["SO(5,1)", "SO(4,1)", "SO(3,1)", "SO(6,1)", "SO(2,1)", "SO(1,1)", "SO(6)", "x"]
# An entry with as many digits as Python's int-to-string limit, which the
# parser refuses (without a limit it would be a valid, very slow weight).
AT_LIMIT = ["9" * sys.get_int_max_str_digits() + ",0"] if sys.get_int_max_str_digits() else []
WEIGHTS = ["0,0", "1,0", "1,1", "2,1", "1,1,0", "2,1,0", "0,0,0", "1,2,0", "", "x", "1.5,0",
           *AT_LIMIT]
SIGNS = ["+", "-", "pm", "+-", "minus", "x", ""]
ENHANCED = [
    "1,1,0;h=1;sig=-", "0,0;h=2;sig=pm", "0,0,0;h=1;sig=+", "0,0;h=1;sig=+", "1,0;h=1;sig=+",
    "2,0,0;h=1;sig=+", "1,1,0;h=0;sig=+", "1,1,0;h=x;sig=-", "0,0;h=2;sig=+", "0,0,0;h=3;sig=+",
    "h=1;sig=+", ";;", "x", *(entry + ";h=1;sig=+" for entry in AT_LIMIT),
    f"1{'0' * 29},0,0;h=0;sig=+",  # past the branch output bound
]
LANGLANDS = [
    "sigma=2,0;delta=+;lambda=0", "sigma=1,0;delta=+;lambda=0", "sigma=2;delta=+",
    "sigma=;lambda=2", "sigma=1;lambda=2", "sigma=2,0;lambda=x", "weight=1,1,0;sig=-",
    "weight=1,1", "delta=+", "x",
]
INTS = ["0", "1", "2", "3", "4", "-1", "x", "1.5", "1" + "0" * 30]
FLAG_VALUES = {
    "--group": GROUPS, "--target": GROUPS,
    "--weight": WEIGHTS, "--subweight": WEIGHTS, "--coeff": WEIGHTS, "--subcoeff": WEIGHTS,
    "--enhanced": ENHANCED, "--to": ENHANCED, "--gate": ENHANCED,
    "--langlands": LANGLANDS, "--big": LANGLANDS, "--small": LANGLANDS,
    "--sig0": SIGNS, "--delta": SIGNS, "--sig": SIGNS, "--psi": SIGNS,
    "--n": INTS, "--i": INTS, "--j": INTS,
}
# The README's example calls: each subcommand with flags that work together.
EXAMPLES = [
    ["classify", "--group", "SO(4,1)", "--weight", "0,0"],
    ["classify", "--group", "SO(5,1)", "--weight", "2,1,0"],
    ["convert", "--group", "SO(5,1)", "--langlands", "sigma=2,0;delta=+;lambda=0"],
    ["convert", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;sig=-"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;sig=-"],
    ["signature", "--group", "SO(5,1)", "--langlands", "sigma=2,0;delta=+;lambda=0"],
    ["hasse", "--group", "SO(5,1)", "--weight", "1,1,0", "--sig0", "+", "--standard"],
    ["branch", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;sig=-", "--list"],
    ["branch", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;sig=-", "--to", "1,1;h=1;sig=-"],
    ["branch-fd", "--group", "SO(4,1)", "--weight", "1,1", "--delta", "+"],
    ["diagram", "--group", "SO(4,1)", "--weight", "0,0", "--subweight", "0,0", "--sig", "+"],
    ["gp-check", "--group", "SO(3,1)", "--big", "sigma=2;delta=+", "--small", "sigma=;lambda=2"],
    ["period", "--n", "3", "--i", "3"],
    ["period", "--n", "4", "--i", "1", "--ktype"],
    ["distinguished", "--group", "SO(5,1)", "--enhanced", "2,0,0;h=1;sig=+"],
    ["chain", "--group", "SO(4,1)", "--enhanced", "0,0;h=2;sig=pm", "--target", "SO(2,1)",
     "--psi", "+"],
    ["cohomology", "--n", "6", "--i", "2", "--delta", "+", "--j", "2"],
    ["cohomology", "--group", "SO(5,1)", "--enhanced", "0,0,0;h=1;sig=+",
     "--gate", "0,0;h=1;sig=+"],
    ["selftest"],
]
# Each subcommand's flags.  Left out: --grids (it reads files), --suite
# (fixed below), --help and --version (usage text, see the golden test).
COMMAND_FLAGS = {
    "classify": ["--group", "--weight"],
    "convert": ["--group", "--langlands", "--enhanced"],
    "height": ["--group", "--langlands", "--enhanced"],
    "signature": ["--group", "--langlands", "--enhanced"],
    "hasse": ["--group", "--weight", "--sig0", "--standard"],
    "branch": ["--group", "--enhanced", "--list", "--to"],
    "branch-fd": ["--group", "--weight", "--delta"],
    "diagram": ["--group", "--weight", "--subweight", "--sig"],
    "gp-check": ["--group", "--big", "--small"],
    "period": ["--n", "--i", "--ktype"],
    "distinguished": ["--group", "--enhanced"],
    "chain": ["--group", "--enhanced", "--target", "--psi"],
    "cohomology": ["--n", "--i", "--delta", "--j", "--intro-rendering", "--group", "--enhanced",
                   "--gate", "--coeff", "--subcoeff"],
    "selftest": [],
}
STRAY = sorted(FLAG_VALUES) + ["--list", "--ktype", "--standard"] + ENHANCED + INTS


def units(flags):
    """Split an example's flags into [switch] and [flag, value] units."""
    out = []
    for token in flags:
        if token.startswith("--"):
            out.append([token])
        else:
            out[-1].append(token)
    return out


@st.composite
def argvs(draw):
    """An example call, mutated: each flag kept, dropped, or given another
    value (well formed or not); flags of the same subcommand added; the
    order shuffled; sometimes an output mode or a stray token added."""
    command, *flags = draw(st.sampled_from(EXAMPLES))
    parts = []
    for unit in units(flags):
        action = draw(st.sampled_from(["keep", "keep", "keep", "swap", "drop"]))
        if action == "swap" and unit[0] in FLAG_VALUES:
            unit = [unit[0], draw(st.sampled_from(FLAG_VALUES[unit[0]]))]
        if action != "drop":
            parts.append(unit)
    for flag in draw(st.lists(st.sampled_from(COMMAND_FLAGS[command] or ["--json"]), max_size=2)):
        parts.append([flag, draw(st.sampled_from(FLAG_VALUES[flag]))] if flag in FLAG_VALUES
                     else [flag])
    parts.append(draw(st.sampled_from([[], ["--table"], ["--json"]])))
    if draw(st.integers(0, 4)) == 0:
        parts.append([draw(st.sampled_from(STRAY))])
    argv = [command] + [x for part in draw(st.permutations(parts)) for x in part]
    if command == "selftest":  # the one quick suite
        argv[1:1] = ["--suite", "trivial-rho-diagrams"]
    return argv


def run_in_process(argv):
    """(exit code, stdout, stderr) of ``main(argv)``; only SystemExit is caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestArgvFuzz:
    # The random stream rarely pairs a size refusal's input with its
    # subcommand, so each refusal is also an explicit example.
    @example(argv=["branch", "--group", "SO(5,1)", "--enhanced", f"1{'0' * 29},0,0;h=0;sig=+"])
    @example(argv=["branch-fd", "--group", "SO(5,1)", "--weight", f"1{'0' * 29},0,0"])
    @example(argv=["cohomology", "--n", "1000000", "--i", "1", "--j", "1"])
    @example(argv=["period", "--n", "2000", "--i", "1000"])
    @example(argv=["period", "--ktype", "--n", "1000000", "--i", "500000"])
    @example(argv=HUGE_ANSWER["classify"])
    @example(argv=HUGE_ANSWER["hasse"])
    @example(argv=HUGE_ANSWER["diagram"])
    @example(argv=HUGE_ANSWER["chain"])
    @example(argv=["distinguished", "--group", "SO(2,1)", "--enhanced", "0;h=1;sig=pm"])
    @example(argv=["selftest", "--grids", DEEP_GRIDS])
    @example(argv=["selftest", "--grids", "/dev/zero"])
    @given(argv=argvs())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_exit_contract(self, argv):
        first = run_in_process(argv)
        code, out, err = first
        assert code in (0, 2, 3, 4), (argv, first)
        assert "Traceback" not in err
        if code == 0 and "--table" not in argv:
            json.loads(out)
        assert run_in_process(argv) == first


GOLDEN = json.loads(Path(__file__).with_name("cli_usage_golden.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(sys.version_info[:2] != tuple(GOLDEN["python"]),
                    reason="argparse wording and line wrapping differ between Python versions")
class TestUsageText:
    """Help, usage and argparse error text: the command table's flag order,
    metavars and help strings, recorded at 80 columns."""

    @pytest.mark.parametrize("call", GOLDEN["calls"], ids=lambda c: " ".join(c["argv"]) or "-")
    def test_matches_golden(self, call, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_in_process(call["argv"]) == (call["exit"], call["stdout"], call["stderr"])


SELFTEST_GOLDEN = json.loads(
    Path(__file__).with_name("selftest_golden.json").read_text(encoding="utf-8")
)


class TestSelftestGolden:
    """Default ``selftest`` stdout, JSON and ``--table``, byte for byte:
    suite names, order, case counts and rendering."""

    @pytest.mark.parametrize("call", SELFTEST_GOLDEN["calls"], ids=lambda c: " ".join(c["argv"]))
    def test_matches_golden(self, call):
        assert run_in_process(call["argv"]) == (call["exit"], call["stdout"], call["stderr"])


CORPUS = json.loads(Path(__file__).with_name("cli_corpus_golden.json").read_text(encoding="utf-8"))


class TestCliCorpus:
    """Exit code, stdout and stderr of each call in ``cli_corpus_golden.json``
    (written by ``make_cli_corpus.py``), compared through their sha256.  A
    usage error is argparse's text, checked on the recorded Python only."""

    def test_matches_golden(self, monkeypatch):
        monkeypatch.chdir(Path(__file__).resolve().parents[1])  # grids files are named relatively
        monkeypatch.setenv("COLUMNS", "80")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(CORPUS["int_max_str_digits"])
        try:
            calls = [replay(call["argv"]) for call in CORPUS["calls"]]
        finally:
            sys.set_int_max_str_digits(limit)
        if sys.version_info[:2] != tuple(CORPUS["python"]):
            for want, got in zip(CORPUS["calls"], calls):
                if want.get("argparse"):
                    got["stderr"] = want["stderr"]
        wrong = [(want, got) for want, got in zip(CORPUS["calls"], calls) if want != got]
        assert not wrong, f"{len(wrong)} of {len(calls)} calls differ; the first (want, got): {wrong[0]}"


class TestSuiteFailureExitCode:
    @pytest.mark.parametrize("mode", ["--json", "--table"])
    def test_exit_4_on_failing_suite(self, capsys, monkeypatch, mode):
        # The selftest handler reads run_suite off sobranch.oracle when it runs.
        import sobranch.oracle as oracle_mod
        from sobranch.oracle import SuiteReport

        def fake_run_suite(name, bounds=None, shared=None):
            return SuiteReport(name, 1, [{"boom": True}], 0.0)

        monkeypatch.setattr(oracle_mod, "run_suite", fake_run_suite)
        code, out, _ = run_cli(capsys, "selftest", "--suite", "roundtrip", mode)
        assert code == 4
        if mode == "--json":
            assert json.loads(out)["passed"] is False
        else:
            assert out == "roundtrip" + " " * 22 + "1 cases  FAIL (1)\n"


class TestOneRendering:
    """A handler returns its answer and a table function; only the mode asked for is drawn."""

    DIAGRAM = ["diagram", "--group", "SO(4,1)", "--weight", "0,0", "--subweight", "0,0", "--json"]

    def test_json_mode_draws_no_table(self, capsys, monkeypatch):
        # The diagram handler returns the bound Diagram.render as its table function.
        import sobranch.branching as branching_mod

        expected = run_cli(capsys, *self.DIAGRAM)
        assert expected[0] == 0

        def refuse(*args):
            raise AssertionError("Diagram.render called in JSON mode")

        monkeypatch.setattr(branching_mod.Diagram, "render", refuse)
        assert run_cli(capsys, *self.DIAGRAM) == expected

    def test_json_diagram_builds_each_sequence_once(self, capsys, monkeypatch):
        import sobranch.branching as branching_mod

        built = []
        original = branching_mod.standard_sequence
        monkeypatch.setattr(branching_mod, "standard_sequence",
                            lambda *a: built.append(a) or original(*a))
        assert run_cli(capsys, *self.DIAGRAM)[0] == 0
        assert len(built) == 2

    def test_table_diagram_builds_each_sequence_once(self, capsys, monkeypatch):
        # The answer and the table are drawn from one build: two standard
        # sequences and one arrow search, as in JSON mode.
        import sobranch.branching as branching_mod

        built, searched = [], []
        sequence, diagram = branching_mod.standard_sequence, branching_mod.diagram
        monkeypatch.setattr(branching_mod, "standard_sequence",
                            lambda *a: built.append(a) or sequence(*a))
        monkeypatch.setattr(branching_mod, "diagram", lambda *a: searched.append(a) or diagram(*a))
        code, out, _ = run_cli(capsys, *self.DIAGRAM[:-1], "--table")
        assert (code, len(built), len(searched)) == (0, 2, 1)
        assert out == diagram(*searched[0]).render() + "\n"
