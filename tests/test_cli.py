import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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

    def test_unknown_bound_key_in_grids_is_2(self, capsys, tmp_path):
        # A misspelled bound must not fall back to its default.
        grids = tmp_path / "grids.json"
        grids.write_text(json.dumps({"trivial-rho-diagrams": {"max_m": 3}}))
        code, out, err = run_cli(capsys, "selftest", "--grids", str(grids))
        assert code == 2 and out == ""
        assert "unknown bound trivial-rho-diagrams.max_m" in err

    def test_partial_grid_override_keeps_other_defaults(self, capsys, tmp_path):
        def cases(bounds):
            grids = tmp_path / "grids.json"
            grids.write_text(json.dumps({"chi-twist": bounds}))
            data = run_json(capsys, "selftest", "--grids", str(grids), "--suite", "chi-twist")
            return data["suites"][0]["cases_run"]

        assert cases({"max_group": 5}) == cases({"max_group": 5, "max_entry": 4})

    def test_cli_import_leaves_process_pool_unloaded(self):
        # The rest of the import footprint too: no dataclasses (with inspect),
        # no fractions (with decimal), and none of the modules classify skips.
        assert loaded_after("import sobranch.cli", HEAVY_STDLIB + UNUSED_BY_CLASSIFY) == []


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
    ["cohomology", "--n", "4", "--i", "1", "--j", "1", "--coeff", "9,9", "--subcoeff", "x"],
    ["cohomology", "--n", "4", "--i", "1", "--j", "1", "--group", "SO(5,1)"],
    ["cohomology", "--n", "4", "--i", "1", "--j", "1", "--enhanced", "0,0,0;h=1;sig=+"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;h=1;h=2;sig=+"],
    ["height", "--group", "SO(5,1)", "--enhanced", "1,1,0;weight=1,1,0;h=1;sig=+"],
    ["convert", "--group", "SO(5,1)", "--langlands", "sigma=2,0;delta=+;delta=-"],
    ["period", "--n", "0", "--i", "0"],
    ["period", "--n", "-1", "--i", "0", "--ktype"],
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
WEIGHTS = ["0,0", "1,0", "1,1", "2,1", "1,1,0", "2,1,0", "0,0,0", "1,2,0", "", "x", "1.5,0"]
SIGNS = ["+", "-", "pm", "+-", "minus", "x", ""]
ENHANCED = [
    "1,1,0;h=1;sig=-", "0,0;h=2;sig=pm", "0,0,0;h=1;sig=+", "0,0;h=1;sig=+", "1,0;h=1;sig=+",
    "2,0,0;h=1;sig=+", "1,1,0;h=0;sig=+", "1,1,0;h=x;sig=-", "0,0;h=2;sig=+", "0,0,0;h=3;sig=+",
    "h=1;sig=+", ";;", "x",
]
LANGLANDS = [
    "sigma=2,0;delta=+;lambda=0", "sigma=1,0;delta=+;lambda=0", "sigma=2;delta=+",
    "sigma=;lambda=2", "sigma=1;lambda=2", "sigma=2,0;lambda=x", "weight=1,1,0;sig=-",
    "weight=1,1", "delta=+", "x",
]
INTS = ["0", "1", "2", "3", "4", "-1", "x", "1.5"]
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


class TestSuiteFailureExitCode:
    def test_exit_4_on_failing_suite(self, capsys, monkeypatch):
        # The selftest handler reads run_suite off sobranch.oracle when it runs.
        import sobranch.oracle as oracle_mod
        from sobranch.oracle import SuiteReport

        def fake_run_suite(name, bounds=None):
            return SuiteReport(name, 1, [{"boom": True}], 0.0)

        monkeypatch.setattr(oracle_mod, "run_suite", fake_run_suite)
        code, out, _ = run_cli(capsys, "selftest", "--suite", "roundtrip")
        assert code == 4
        assert json.loads(out)["passed"] is False
