import ast
import time
import tracemalloc
from pathlib import Path

import pytest

import sobranch
import sobranch.branching as branching
import sobranch.oracle as oracle
from sobranch import (
    EnhancedParam,
    GroupTag,
    Signature,
    Weight,
    compact_branch_so,
    run_suite,
    weyl_dim,
)
from sobranch.branching import finite_dim_branch, multiplicity_rows
from sobranch.errors import (
    NotMonotoneError, OutOfRangeError, SobranchError, UnknownSuiteError, WrongRankError,
)
from sobranch.oracle import SUITE_NAMES, default_bounds, grid_weights, height0_targets, so_weights
from sobranch.reps import FiniteDim, Nontempered, twist_chi_minus

from conftest import recursive_so_dim, reference_chi_twist, reference_so_weights, theta_weights

SMALL_BOUNDS = {
    "dim-conservation": {"max_so": 6, "max_entry": 2},
    "roundtrip": {"max_group": 7, "max_entry": 2},
    "height-consistency": {"max_group": 7, "max_entry": 2},
    "trivial-rho-diagrams": {"max_n": 6},
    "chi-twist": {"max_group": 6, "max_entry": 2},
    "height0-vs-finite": {"max_group": 6, "max_entry": 2},
}
SMALL_CASES = {
    "dim-conservation": 37,
    "roundtrip": 237,
    "height-consistency": 237,
    "trivial-rho-diagrams": 5,
    "chi-twist": 4068,
    "height0-vs-finite": 492,
}


class TestCompactBranch:
    def test_so5_down(self):
        assert compact_branch_so(5, (1, 0)) == [(1, 0), (0, 0)]

    def test_trivial(self):
        for N in range(3, 9):
            assert compact_branch_so(N, (0,) * (N // 2)) == [(0,) * ((N - 1) // 2)]

    def test_so4_down_forced(self):
        assert compact_branch_so(4, (1, 1)) == [(1,)]
        assert compact_branch_so(4, (1, -1)) == [(1,)]

    def test_signed_components(self):
        assert compact_branch_so(3, (2,)) == [(2,), (1,), (0,), (-1,), (-2,)]

    def test_dimension_sum_exact(self):
        for N in range(3, 8):
            for mu in so_weights(N, 2):
                total = weyl_dim(N, mu)
                assert total == sum(weyl_dim(N - 1, nu) for nu in compact_branch_so(N, mu))
                assert total == recursive_so_dim(N, mu)

    def test_validation(self):
        with pytest.raises(WrongRankError):
            compact_branch_so(5, (1, 0, 0))
        with pytest.raises(NotMonotoneError):
            compact_branch_so(5, (0, 1))

    @pytest.mark.parametrize("lam", [(1.9, 0.2), (2.0, 1), (True, False), (1, False)])
    def test_rejects_non_integer_entries(self, lam):
        # int() used to truncate: (1.9, 0.2) branched as (1, 0).
        with pytest.raises(NotMonotoneError, match="must be integers"):
            compact_branch_so(5, lam)


class TestGrids:
    def test_grid_weights_respects_assumption(self):
        for w in grid_weights(GroupTag(5), 3):
            assert w.entries[-1] == 0
        lengths = {w.rank for w in grid_weights(GroupTag(6), 2)}
        assert lengths == {3}

    def test_height0_targets_match_finite_dim_branch(self):
        # The height0-vs-finite suite reads its expected set off the compact
        # branching rule; on its default grid that set is the engine's.
        bounds = default_bounds()["height0-vs-finite"]
        weights = 0
        for N in range(3, bounds["max_group"] + 1):
            group = GroupTag(N)
            for s in grid_weights(group, bounds["max_entry"]):
                weights += 1
                engine = {c.nu for c in finite_dim_branch(group, s, Signature.PLUS) if c.self_dual}
                assert height0_targets(group, s) == engine, (N, s)
        assert weights == 134

    @pytest.mark.parametrize("N", range(2, 14))
    def test_so_weights_match_reference(self, N):
        for max_entry in range(5):
            assert list(so_weights(N, max_entry)) == reference_so_weights(N, max_entry)

    @pytest.mark.parametrize("N", range(2, 14))
    def test_grid_weights_match_reference(self, N):
        for max_entry in range(5):
            group = GroupTag(N)
            assert list(grid_weights(group, max_entry)) == theta_weights(group, max_entry)

    def test_grid_weight_counts(self):
        # weakly decreasing tuples with entries <= 4: C(free + 4, 4)
        assert len(list(grid_weights(GroupTag(11), 4))) == 126
        assert len(list(grid_weights(GroupTag(10), 4))) == 126


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("no-such-suite")

    def test_unknown_bound_key(self):
        # A misspelled bound must not fall back to its default and pass.
        with pytest.raises(OutOfRangeError) as exc:
            run_suite("trivial-rho-diagrams", {"max_m": 3})
        assert str(exc.value) == "unknown bound trivial-rho-diagrams.max_m; choose from max_n"
        with pytest.raises(OutOfRangeError, match="choose from max_group, max_entry"):
            run_suite("chi-twist", {"max_group": 5, "max_entries": 2})

    @pytest.mark.parametrize(
        "value", [3.9, True, "4", "x", None, [3]], ids=["float", "bool", "str", "word", "none", "list"]
    )
    def test_non_integer_bound(self, value):
        # 3.9 used to run as 3, True as 1 (0 cases, a pass), "4" as 4, and
        # "x" raised a bare ValueError.
        with pytest.raises(OutOfRangeError) as exc:
            run_suite("trivial-rho-diagrams", {"max_n": value})
        assert str(exc.value) == (
            f"bound trivial-rho-diagrams.max_n must be an integer, got {value!r}"
        )

    @pytest.mark.parametrize(
        "suite, bounds",
        [
            ("dim-conservation", {"max_so": 1}),
            ("dim-conservation", {"max_entry": -1}),
            ("roundtrip", {"max_group": 1}),
            ("height-consistency", {"max_entry": -1}),
            ("trivial-rho-diagrams", {"max_n": 1}),
            ("chi-twist", {"max_group": 2}),
            ("chi-twist", {"max_entry": -1}),
            ("height0-vs-finite", {"max_group": 2}),
        ],
    )
    def test_grid_without_cases(self, suite, bounds):
        # A grid that selects no case used to pass with 0 cases.
        with pytest.raises(OutOfRangeError) as exc:
            run_suite(suite, bounds)
        assert str(exc.value) == f"the bounds of {suite!r} select no case; nothing was checked"

    def test_negative_entry_bound_is_refused_at_once(self):
        # so_weights used to allocate N // 2 slots per N for its empty stream,
        # so this grid, quadratic in max_so, did not finish in 60 s.
        start = time.perf_counter()
        with pytest.raises(OutOfRangeError) as exc:
            run_suite("dim-conservation", {"max_so": 10**6, "max_entry": -1})
        assert time.perf_counter() - start < 5
        assert str(exc.value) == (
            "the bounds of 'dim-conservation' select no case; nothing was checked"
        )

    @pytest.mark.parametrize(
        "bounds",
        [
            [("max_n", 3)], "max_n", 5,
            # Falsy bounds other than None used to run the default grid and pass.
            pytest.param([], id="empty-list"), pytest.param("", id="empty-str"),
            pytest.param(0, id="zero"), pytest.param(False, id="false"),
        ],
    )
    def test_bounds_not_a_dict(self, bounds):
        with pytest.raises(OutOfRangeError) as exc:
            run_suite("trivial-rho-diagrams", bounds)
        assert str(exc.value) == "bounds of 'trivial-rho-diagrams' must be an object"

    def test_bound_key_checked_before_its_value(self):
        with pytest.raises(OutOfRangeError, match="unknown bound roundtrip.max_grp"):
            run_suite("roundtrip", {"max_grp": "x", "max_group": 2})
        with pytest.raises(OutOfRangeError, match="bound roundtrip.max_group must be an integer"):
            run_suite("roundtrip", {"max_group": "x", "max_grp": 2})

    def test_default_bounds_cover_all_suites(self):
        bounds = default_bounds()
        assert set(bounds) == set(SUITE_NAMES)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite_passes(self, name):
        report = run_suite(name, SMALL_BOUNDS[name])
        assert report.passed, report.failures
        assert report.cases_run == SMALL_CASES[name]
        assert report.suite == name

    def test_reports_reproducible(self):
        a = run_suite("roundtrip", SMALL_BOUNDS["roundtrip"])
        b = run_suite("roundtrip", SMALL_BOUNDS["roundtrip"])
        assert (a.suite, a.cases_run, a.failures) == (b.suite, b.cases_run, b.failures)

    def test_json_shape(self):
        report = run_suite("trivial-rho-diagrams", {"max_n": 4})
        data = report.to_json()
        assert data["suite"] == "trivial-rho-diagrams"
        assert data["passed"] is True
        assert data["failures"] == []
        assert data["cases_run"] == report.cases_run


def _grid_params(N_from, bounds):
    return [
        e
        for N in range(N_from, bounds["max_group"] + 1)
        for e in oracle.grid_enhanced(GroupTag(N), bounds["max_entry"])
    ]


class TestRoundtrip:
    BOUNDS = SMALL_BOUNDS["roundtrip"]

    def test_sign_flipped_at_one_height(self, monkeypatch):
        # A converter that flips the signature of every height-1 parameter
        # fails each definite one; the discrete series of SO(2,1) keeps 'pm'.
        engine = oracle.enhanced_from_langlands

        def flipped_at_one(d):
            e = engine(d)
            return twist_chi_minus(e) if e.height == 1 else e

        monkeypatch.setattr(oracle, "enhanced_from_langlands", flipped_at_one)
        report = run_suite("roundtrip", self.BOUNDS)
        grid = _grid_params(2, self.BOUNDS)
        bad = [e for e in grid if e.height == 1 and e.sig is not Signature.BOTH]
        assert report.cases_run == SMALL_CASES["roundtrip"]
        assert report.failures_total == len(bad) > oracle.KEPT_FAILURES
        assert report.failures[0] == {
            "parameter": repr(bad[0]),
            "descriptor": repr(oracle.langlands_from_enhanced(bad[0])),
            "roundtrip": repr(twist_chi_minus(bad[0])),
        }

    def test_two_parameters_sent_to_one_descriptor(self, monkeypatch):
        # (h, -) sent to the descriptor of (h, +): the merged parameters
        # come back as (h, +), so each '-' parameter fails.
        engine = oracle.langlands_from_enhanced

        def merging(e):
            if e.sig is Signature.MINUS:
                e = EnhancedParam(e.group, e.s, e.height, Signature.PLUS)
            return engine(e)

        monkeypatch.setattr(oracle, "langlands_from_enhanced", merging)
        report = run_suite("roundtrip", self.BOUNDS)
        bad = [e for e in _grid_params(2, self.BOUNDS) if e.sig is Signature.MINUS]
        assert report.failures_total == len(bad) > oracle.KEPT_FAILURES
        assert [f["parameter"] for f in report.failures] == [
            repr(e) for e in bad[: oracle.KEPT_FAILURES]
        ]


class TestNoRepeatedWork:
    """On the small grids each suite does its work once: one conversion each
    way per roundtrip case, one twist per chi-twist grid parameter, and no
    interlacing test where the interlacing weights can be looked up."""

    def test_roundtrip_converts_once_each_way(self, monkeypatch):
        calls = {"L": 0, "E": 0}
        to_langlands, to_enhanced = oracle.langlands_from_enhanced, oracle.enhanced_from_langlands

        def langlands(e):
            calls["L"] += 1
            return to_langlands(e)

        def enhanced(d):
            calls["E"] += 1
            return to_enhanced(d)

        monkeypatch.setattr(oracle, "langlands_from_enhanced", langlands)
        monkeypatch.setattr(oracle, "enhanced_from_langlands", enhanced)
        report = run_suite("roundtrip", SMALL_BOUNDS["roundtrip"])
        assert report.passed
        assert calls == {"L": SMALL_CASES["roundtrip"], "E": SMALL_CASES["roundtrip"]}

    def test_chi_twist_twists_each_grid_parameter_once(self, monkeypatch):
        twisted = []

        def counted(e):
            twisted.append(e)
            return twist_chi_minus(e)

        monkeypatch.setattr(oracle, "twist_chi_minus", counted)
        assert run_suite("chi-twist", SMALL_BOUNDS["chi-twist"]).passed
        assert twisted == _grid_params(2, SMALL_BOUNDS["chi-twist"])

    def test_chi_twist_rows_test_no_interlacing(self, monkeypatch):
        def tested(mu, nu):
            raise AssertionError("an interlacing test on the chi-twist grid")

        monkeypatch.setattr(branching, "interlaces", tested)
        report = run_suite("chi-twist", SMALL_BOUNDS["chi-twist"])
        assert report.passed and report.cases_run == SMALL_CASES["chi-twist"]


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestSharedGrids:
    """Suites run with one ``shared`` dict read the grids and descriptors the
    first one built, and report exactly what separate calls report."""

    @staticmethod
    def check(bounds):
        def key(name, *shared):
            try:
                report = run_suite(name, bounds.get(name), *shared)
            except SobranchError as exc:  # a broken engine may raise in a suite
                return None, repr(exc)
            return report.to_json(), report.failures_total

        apart = {name: key(name) for name in SUITE_NAMES}
        for order in (SUITE_NAMES, SUITE_NAMES[::-1]):  # descriptors asked for first or last
            shared = {}
            assert {name: key(name, shared) for name in order} == apart
        return apart

    def test_small_bounds(self):
        reports = self.check(SMALL_BOUNDS)
        assert {name: r["cases_run"] for name, (r, _) in reports.items()} == SMALL_CASES

    def test_same_group_other_entry_bound(self):
        # roundtrip, height-consistency and chi-twist share the groups up to
        # SO(5,1) with three entry bounds: a grid keyed by N alone would hand
        # one suite another's grid and change its case count.
        bounds = {
            "roundtrip": {"max_group": 6, "max_entry": 2},
            "height-consistency": {"max_group": 5, "max_entry": 3},
            "chi-twist": {"max_group": 5, "max_entry": 1},
        }
        shared = {}
        for name in bounds:
            run_suite(name, bounds[name], shared)
        assert sorted(shared) == sorted(
            [(N, 2) for N in range(2, 7)] + [(N, 3) for N in range(2, 6)]
            + [(N, 1) for N in range(2, 6)]
        )
        reports = self.check(bounds)
        assert reports["roundtrip"][0]["cases_run"] == len(_grid_params(2, bounds["roundtrip"]))
        assert reports["height-consistency"][0]["cases_run"] == len(
            _grid_params(2, bounds["height-consistency"])
        )
        ref_cases, ref_failures = reference_chi_twist(bounds["chi-twist"])
        assert (reports["chi-twist"][0]["cases_run"], ref_failures) == (ref_cases, [])

    def test_broken_engine(self, monkeypatch):
        # A broken state rule, height and converter are found through the
        # shared grids as through separate ones.
        engine_height, engine_enhanced = oracle.height, oracle.enhanced_from_langlands

        def flipped_at_one(d):
            e = engine_enhanced(d)
            return twist_chi_minus(e) if e.height == 1 else e

        monkeypatch.setattr(branching, "_states_match", _plus_matches_every_state)
        monkeypatch.setattr(oracle, "height", lambda d: engine_height(d) + 1)
        monkeypatch.setattr(oracle, "enhanced_from_langlands", flipped_at_one)
        reports = self.check(SMALL_BOUNDS)
        for name in ("roundtrip", "height-consistency", "chi-twist"):
            report, total = reports[name]
            assert not report["passed"] and total > oracle.KEPT_FAILURES, name

    def test_default_selftest_builds_each_grid_once(self, monkeypatch, capsys):
        # The grids of SO(2..11,1) with entries <= 4 hold 4 953 parameters;
        # separate suites built them twice and converted them twice.
        from sobranch import cli, reps

        calls = dict.fromkeys(["grid_enhanced", "classify", "EnhancedParam"], 0)
        monkeypatch.setattr(
            oracle, "grid_enhanced", _counted(calls, "grid_enhanced", oracle.grid_enhanced)
        )
        classify = _counted(calls, "classify", reps.classify)
        monkeypatch.setattr(reps, "classify", classify)
        monkeypatch.setattr(oracle, "classify", classify, raising=False)
        monkeypatch.setattr(
            EnhancedParam, "__init__", _counted(calls, "EnhancedParam", EnhancedParam.__init__)
        )
        assert cli.main(["selftest"]) == 0
        capsys.readouterr()
        assert calls == {"grid_enhanced": 10, "classify": 0, "EnhancedParam": 15_405}


class TestHeightConsistency:
    BOUNDS = SMALL_BOUNDS["height-consistency"]

    def test_broken_engine_height(self, monkeypatch):
        # The suite checks the engine's public height against its own
        # interval method: one off by one on the nontempered descriptors of
        # height >= 1 fails it once per such descriptor.
        engine_height = oracle.height
        patched = []

        def off_by_one(d):
            h = engine_height(d)
            if isinstance(d, Nontempered) and h >= 1:
                patched.append(d)
                return h + 1
            return h

        assert run_suite("height-consistency", self.BOUNDS).passed
        monkeypatch.setattr(oracle, "height", off_by_one)
        report = run_suite("height-consistency", self.BOUNDS)
        assert not report.passed
        assert report.cases_run == SMALL_CASES["height-consistency"]
        assert len(report.failures) == oracle.KEPT_FAILURES
        assert report.failures_total == len(patched) > oracle.KEPT_FAILURES
        d = patched[0]
        assert report.failures[0] == {
            "descriptor": repr(d), "insertion": engine_height(d) + 1, "intervals": engine_height(d),
        }

    def test_one_failure_per_bad_finite_dim_case(self, monkeypatch):
        # A finite-dimensional descriptor given height 1 is one bad case,
        # and it is counted once.
        engine_height = oracle.height
        patched = []

        def finite_dim_at_one(d):
            if isinstance(d, FiniteDim):
                patched.append(d)
                return 1
            return engine_height(d)

        monkeypatch.setattr(oracle, "height", finite_dim_at_one)
        report = run_suite("height-consistency", {"max_group": 5, "max_entry": 1})
        assert report.failures_total == len(patched) == 20


def _private_imports(tree: ast.Module, allowed: tuple[str, ...] = ()) -> list[tuple[int, str]]:
    """(line, name) of each underscore name the module imports from the
    package, in functions too, except the ``allowed`` names."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "sobranch")
        for alias in node.names
        if alias.name.startswith("_") and alias.name not in allowed
    ]


def test_oracle_imports_no_private_engine_name():
    # The suites share no private code with the engine they check.
    assert _private_imports(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))) == []


def _package_trees() -> list[tuple[str, ast.Module]]:
    """(file name, parsed source) of every module of the package."""
    package = Path(oracle.__file__).parent
    return [
        (str(path.relative_to(package)), ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.rglob("*.py"))
    ]


def test_package_has_no_assert_statement():
    # Invariants raise package errors, which survive python -O; assert does not.
    asserts = [
        (name, node.lineno)
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def test_no_module_imports_a_private_name_of_another():
    # A private name is its module's own business; another module that needs
    # it should get a public name instead.
    private = [
        (name, *found)
        for name, tree in _package_trees()
        for found in _private_imports(tree, allowed=("__version__",))
    ]
    assert private == []


def test_every_public_name_has_a_caller_in_the_package():
    # Each exported name is used by the package itself, outside its own
    # def or class; the export table is a string, so it does not count.
    used = set()
    for _, tree in _package_trees():
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    assert [name for name in sobranch.__all__ if name not in used] == []


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for name, tree in _package_trees():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, line, bound) for bound, line in imported.items() if bound not in loaded]
    assert unused == []


_engine_states_match = branching._states_match


def _plus_matches_every_state(height, sig, sub_height, sub_sig):
    """An engine that breaks twist invariance: a PLUS parameter passes the
    (height, signature) test against every state."""
    return sig is Signature.PLUS or _engine_states_match(height, sig, sub_height, sub_sig)


def _twist_leaving_grid(e):
    """A twist that sends height-0 parameters outside the bounded grid."""
    t = twist_chi_minus(e)
    if e.height:
        return t
    s = Weight((e.s.entries[0] + 9,) + e.s.entries[1:])
    return EnhancedParam(e.group, s, t.height, t.sig)


_P, _M, _B = Signature.PLUS, Signature.MINUS, Signature.BOTH
_THREE_CYCLES = {
    2: {(0, _P): (0, _M), (0, _M): (1, _B), (1, _B): (0, _P)},
    3: {},
    "above": {(0, _P): (0, _M), (0, _M): (1, _P), (1, _P): (0, _P), (1, _M): (1, _M)},
}


def _three_cycle_twist(e):
    """A twist that moves each parameter within its weight's block, the same
    way in every block, but is not an involution.  On SO(2,1) it cycles
    (0, +) -> (0, -) -> (1, pm), on SO(3,1) it is chi_-, and from SO(4,1) up
    it cycles (0, +) -> (0, -) -> (1, +) and fixes (1, -).  So at N = 3 the
    small twin is no involution but the big one is, and at N = 4 the other
    way round."""
    state = _THREE_CYCLES.get(e.group.N, _THREE_CYCLES["above"]).get((e.height, e.sig))
    return twist_chi_minus(e) if state is None else EnhancedParam(e.group, e.s, *state)


class TestChiTwistDifferential:
    BOUNDS = {"max_group": 7, "max_entry": 2}

    @pytest.mark.parametrize(
        "module, name, fn, broken",
        [
            (None, None, None, False),
            (branching, "_states_match", _plus_matches_every_state, True),
            (oracle, "twist_chi_minus", _twist_leaving_grid, True),
            (oracle, "twist_chi_minus", _three_cycle_twist, True),
        ],
        ids=["engine", "broken-multiplicity", "twist-leaves-grid", "twist-three-cycle"],
    )
    def test_matches_per_pair_reference(self, monkeypatch, module, name, fn, broken):
        if module is not None:
            monkeypatch.setattr(module, name, fn)
        self.check_against_reference(broken)

    def check_against_reference(self, broken):
        # The suite keeps the reference's first failures and counts all of them.
        cases, failures = oracle._suite_chi_twist(self.BOUNDS, {})
        ref_cases, ref_failures = reference_chi_twist(self.BOUNDS)
        assert (cases, failures) == (ref_cases, ref_failures[: oracle.KEPT_FAILURES])
        assert failures.total == len(ref_failures)
        assert cases > 0
        assert bool(failures) is broken
        return ref_failures

    def test_twist_that_also_swaps_two_weights(self, monkeypatch):
        # An in-grid twist that also exchanges the blocks of the zero weight
        # and (1, 0, ..): the twisted smalls are a permutation of the grid out
        # of its order, which the second stream reads like any other smalls.
        def swapping_twist(e):
            t = twist_chi_minus(e)
            zero, first = (0,) * e.s.rank, (1,) + (0,) * (e.s.rank - 1)
            swap = {zero: first, first: zero}.get(e.s.entries)
            return t if swap is None else EnhancedParam(e.group, Weight(swap), t.height, t.sig)

        monkeypatch.setattr(oracle, "twist_chi_minus", swapping_twist)
        assert self.check_against_reference(broken=True)

    def test_single_flipped_cell(self, monkeypatch):
        # An engine wrong on one pair (both signs definite) fails the suite
        # at that pair and at its twin, exactly as the per-pair reference.
        big = EnhancedParam(GroupTag(6), Weight((2, 1, 0)), 1, Signature.PLUS)
        small = EnhancedParam(GroupTag(5), Weight((1, 1, 0)), 1, Signature.MINUS)
        engine_rows, engine_multiplicity = oracle.multiplicity_rows, oracle.multiplicity

        def flipped_rows(bigs, smalls):
            bigs, smalls = list(bigs), list(smalls)
            for b, row in zip(bigs, engine_rows(bigs, smalls)):
                if b == big:
                    k = smalls.index(small)
                    row = bytearray(row)
                    row[k] = 1 - row[k]
                yield row

        def flipped(b, q):
            m = engine_multiplicity(b, q)
            return 1 - m if (b, q) == (big, small) else m

        monkeypatch.setattr(oracle, "multiplicity_rows", flipped_rows)
        monkeypatch.setattr(oracle, "multiplicity", flipped)
        failures = self.check_against_reference(broken=True)
        assert failures == [
            {"big": repr(big), "small": repr(small)},
            {"big": repr(twist_chi_minus(big)), "small": repr(twist_chi_minus(small))},
        ]

    def test_broken_engine_keeps_memory_bounded(self, monkeypatch):
        # Every failure is counted but only the first KEPT_FAILURES are kept:
        # a broken engine's report costs no more memory than a passing one
        # (the 2 158 failure records took about 1 MB when all were kept).
        def traced_peak():
            tracemalloc.start()
            try:
                report = run_suite("chi-twist", self.BOUNDS)
                return report, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        passing, passing_peak = traced_peak()
        monkeypatch.setattr(branching, "_states_match", _plus_matches_every_state)
        failing, failing_peak = traced_peak()
        _, ref_failures = reference_chi_twist(self.BOUNDS)
        assert passing.passed and passing.failures_total == 0
        assert failing_peak - passing_peak < 64 * 1024
        assert failing.failures == ref_failures[: oracle.KEPT_FAILURES]
        assert failing.failures_total == len(ref_failures) > oracle.KEPT_FAILURES
        data = failing.to_json()
        assert list(data) == ["suite", "cases_run", "failures", "failures_total", "passed"]
        assert (data["failures_total"], data["passed"]) == (len(ref_failures), False)
        assert failing.summary_line().endswith(f"FAIL ({len(ref_failures)})")
        assert list(passing.to_json()) == ["suite", "cases_run", "failures", "passed"]

    def test_broken_engine_formats_only_kept_failures(self, monkeypatch):
        # Mismatches past the kept ones are counted, not formatted: the suite
        # calls repr twice per kept record and never for a dropped one.
        calls = []

        def counted_repr(obj):
            calls.append(obj)
            return repr(obj)

        monkeypatch.setattr(branching, "_states_match", _plus_matches_every_state)
        monkeypatch.setattr(oracle, "repr", counted_repr, raising=False)
        cases, failures = oracle._suite_chi_twist(self.BOUNDS, {})
        ref_cases, ref_failures = reference_chi_twist(self.BOUNDS)
        assert (cases, failures) == (ref_cases, ref_failures[: oracle.KEPT_FAILURES])
        assert failures.total == len(ref_failures) > oracle.KEPT_FAILURES
        assert len(calls) == 2 * oracle.KEPT_FAILURES

    def test_rows_of_the_grid_and_of_its_twist(self, monkeypatch):
        # Every case is read from two streams of rows, the grid's and the
        # twisted grid's, taken in step; no case is evaluated outside them.
        streams = []

        def recorded(bigs, smalls):
            bigs = list(bigs)
            produced = []
            streams.append(produced)
            for big, row in zip(bigs, multiplicity_rows(bigs, smalls)):
                produced.append((big, len(row)))
                yield row

        def per_pair(big, small):
            raise AssertionError("a grid case was evaluated outside the rows")

        monkeypatch.setattr(oracle, "multiplicity_rows", recorded)
        monkeypatch.setattr(oracle, "multiplicity", per_pair)
        cases, failures = oracle._suite_chi_twist(self.BOUNDS, {})
        assert not failures
        grid = [
            e
            for N in range(3, self.BOUNDS["max_group"] + 1)
            for e in oracle.grid_enhanced(GroupTag(N), self.BOUNDS["max_entry"])
        ]
        own, twisted = streams[0::2], streams[1::2]
        assert [big for stream in own for big, _ in stream] == grid
        assert [big for stream in twisted for big, _ in stream] == [
            twist_chi_minus(b) for b in grid
        ]
        assert sum(n for stream in own for _, n in stream) == cases
