"""Command-line front end; every library operation behind one subcommand.

Output is JSON by default (machine mode) or aligned tables with --table.
Exit codes: 0 success, 2 malformed parameters, 3 parameters outside the
supported family, 4 verification-suite failure.

Only ``weights`` and ``reps`` load with this module; a handler imports the
rest of the library (``branching``, ``periods``, ``cohomology``, ``oracle``)
when it runs, so a call loads only what its subcommand uses.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import SUITE_NAMES, __version__
from .errors import InvalidDescriptorError, OutOfRangeError, SobranchError, UnknownSuiteError
from .reps import (
    DiscreteSeries,
    EnhancedParam,
    FiniteDim,
    Nontempered,
    RepDescriptor,
    Signature,
    TemperedPS,
    classify,
    descriptor_to_json,
    enhanced_from_langlands,
    hasse_sequence,
    height,
    langlands_from_enhanced,
    signature,
    standard_sequence,
    theta_param_str,
)
from .weights import GroupTag, Weight, validate_weight


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise OutOfRangeError(f"cannot parse integer {what}={text!r}") from exc


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise OutOfRangeError(f"cannot parse integer list {text!r}") from exc


def _parse_kv(text: str, positional_key: str | None = None) -> dict[str, str]:
    out: dict[str, str] = {}
    for idx, part in enumerate(text.split(";")):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, value = (x.strip() for x in part.split("=", 1))
        elif idx == 0 and positional_key is not None:
            key, value = positional_key, part
        else:
            raise OutOfRangeError(f"cannot parse parameter fragment {part!r}")
        if key in out:
            raise OutOfRangeError(f"parameter {key!r} given twice in {text!r}")
        out[key] = value
    return out


def parse_enhanced(group: GroupTag, text: str) -> EnhancedParam:
    """Parse the flag syntax "1,1,0;h=1;sig=-" into an enhanced parameter."""
    fields = _parse_kv(text, positional_key="weight")
    missing = {"weight", "h", "sig"} - fields.keys()
    if missing:
        raise OutOfRangeError(f"enhanced parameter missing {sorted(missing)} in {text!r}")
    weight = validate_weight(_parse_csv_ints(fields["weight"]), group)
    return EnhancedParam(
        group, weight, _parse_int(fields["h"], "h"), Signature.parse(fields["sig"])
    )


def parse_langlands(group: GroupTag, text: str) -> RepDescriptor:
    """Parse "sigma=2,0;delta=+;lambda=0" and friends into a descriptor.

    The variant is inferred from the keys: weight/sig gives the
    finite-dimensional form, sigma with both delta and lambda the
    nontempered one, sigma with delta only the tempered principal series,
    sigma with lambda only the discrete series.
    """
    fields = _parse_kv(text)
    if "weight" in fields:
        return FiniteDim(
            group,
            validate_weight(_parse_csv_ints(fields["weight"]), group),
            Signature.parse(fields.get("sig", "+")),
        )
    if "sigma" not in fields:
        raise OutOfRangeError(f"langlands parameter needs sigma= in {text!r}")
    sigma = Weight(_parse_csv_ints(fields["sigma"]))
    has_delta = "delta" in fields
    has_lambda = "lambda" in fields
    if has_delta and has_lambda:
        delta = Signature.parse(fields["delta"])
        return Nontempered(group, sigma, delta, _parse_int(fields["lambda"], "lambda"))
    if has_delta:
        return TemperedPS(group, sigma, Signature.parse(fields["delta"]))
    if has_lambda:
        return DiscreteSeries(group, sigma, _parse_int(fields["lambda"], "lambda"))
    raise OutOfRangeError(f"langlands parameter needs delta= or lambda= in {text!r}")


def _descriptor_input(args: argparse.Namespace, group: GroupTag) -> RepDescriptor:
    if args.langlands:
        return parse_langlands(group, args.langlands)
    if args.enhanced:
        return langlands_from_enhanced(parse_enhanced(group, args.enhanced))
    raise OutOfRangeError("provide --langlands or --enhanced")


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(x) for x in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))).rstrip())
    return "\n".join(lines)


def _emit(args: argparse.Namespace, payload: dict, table_text: str | None = None) -> None:
    if args.table and table_text is not None:
        print(table_text)
    else:
        print(json.dumps(payload, ensure_ascii=False, indent=2))


# ---------------------------------------------------------------- handlers


def _cmd_classify(args: argparse.Namespace) -> int:
    group = GroupTag.parse(args.group)
    s = validate_weight(_parse_csv_ints(args.weight), group)
    descriptors = classify(group, s)
    items = []
    rows = []
    for d in descriptors:
        e = enhanced_from_langlands(d)
        items.append(
            {
                "descriptor": descriptor_to_json(d),
                "enhanced": e.to_json(),
                "theta": theta_param_str(e),
            }
        )
        rows.append([e.height, e.sig.value, descriptor_to_json(d)["variant"], theta_param_str(e)])
    payload = {
        "group": str(group),
        "weight": s.to_json(),
        "count": len(items),
        "representations": items,
    }
    _emit(args, payload, _table(["height", "sig", "variant", "theta-parameter"], rows))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    group = GroupTag.parse(args.group)
    d = _descriptor_input(args, group)
    e = enhanced_from_langlands(d)
    payload = {
        "group": str(group),
        "langlands": descriptor_to_json(d),
        "enhanced": e.to_json(),
        "theta": theta_param_str(e),
    }
    rows = [["langlands", json.dumps(descriptor_to_json(d))], ["theta", theta_param_str(e)]]
    _emit(args, payload, _table(["form", "value"], rows))
    return 0


def _cmd_height(args: argparse.Namespace) -> int:
    group = GroupTag.parse(args.group)
    d = _descriptor_input(args, group)
    h = height(d)
    _emit(args, {"group": str(group), "height": h}, f"height {h}")
    return 0


def _cmd_signature(args: argparse.Namespace) -> int:
    group = GroupTag.parse(args.group)
    d = _descriptor_input(args, group)
    sig = signature(d).value
    _emit(args, {"group": str(group), "signature": sig}, f"signature {sig}")
    return 0


def _cmd_hasse(args: argparse.Namespace) -> int:
    group = GroupTag.parse(args.group)
    s = validate_weight(_parse_csv_ints(args.weight), group)
    sig0 = Signature.parse(args.sig0)
    seq = (standard_sequence if args.standard else hasse_sequence)(group, s, sig0)
    payload = {
        "group": str(group),
        "weight": s.to_json(),
        "sig0": sig0.value,
        "kind": "standard" if args.standard else "hasse",
        "members": [e.to_json() for e in seq],
    }
    rows = [[e.height, e.sig.value, theta_param_str(e)] for e in seq]
    _emit(args, payload, _table(["height", "sig", "theta-parameter"], rows))
    return 0


def _cmd_branch(args: argparse.Namespace) -> int:
    from .branching import branch_enumerate, multiplicity

    group = GroupTag.parse(args.group)
    big = parse_enhanced(group, args.enhanced)
    if args.to is not None:
        small = parse_enhanced(group.subgroup, args.to)
        m = multiplicity(big, small)
        payload = {
            "group": str(group),
            "subgroup": str(group.subgroup),
            "big": big.to_json(),
            "small": small.to_json(),
            "multiplicity": m,
        }
        _emit(args, payload, f"multiplicity {m}")
        return 0
    targets = list(branch_enumerate(big))
    payload = {
        "group": str(group),
        "subgroup": str(group.subgroup),
        "big": big.to_json(),
        "count": len(targets),
        "targets": [t.to_json() for t in targets],
    }
    rows = [[t.height, t.sig.value, theta_param_str(t)] for t in targets]
    _emit(args, payload, _table(["height", "sig", "theta-parameter"], rows))
    return 0


def _cmd_branch_fd(args: argparse.Namespace) -> int:
    from .branching import finite_dim_branch

    group = GroupTag.parse(args.group)
    lam = validate_weight(_parse_csv_ints(args.weight), group)
    delta = Signature.parse(args.delta)
    comps = finite_dim_branch(group, lam, delta)
    payload = {
        "group": str(group),
        "subgroup": str(group.subgroup),
        "weight": lam.to_json(),
        "delta": delta.value,
        "components": [
            {"nu": c.nu.to_json(), "signature": c.sig.value, "self_dual": c.self_dual}
            for c in comps
        ],
    }
    rows = [[str(c.nu), c.sig.value, c.self_dual] for c in comps]
    _emit(args, payload, _table(["nu", "sig", "self-dual"], rows))
    return 0


def _cmd_diagram(args: argparse.Namespace) -> int:
    from .branching import diagram_to_json, render_diagram

    group = GroupTag.parse(args.group)
    s = validate_weight(_parse_csv_ints(args.weight), group)
    s_sub = validate_weight(_parse_csv_ints(args.subweight), group.subgroup)
    sig = Signature.parse(args.sig)
    payload = diagram_to_json(group, s, s_sub, sig)
    _emit(args, payload, render_diagram(group, s, s_sub, sig))
    return 0


def _cmd_gp_check(args: argparse.Namespace) -> int:
    from .branching import gp_tempered_check

    group = GroupTag.parse(args.group)
    big = parse_langlands(group, args.big)
    small = parse_langlands(group.subgroup, args.small)
    if not isinstance(big, TemperedPS) or not isinstance(small, DiscreteSeries):
        raise InvalidDescriptorError(
            "gp-check expects a tempered principal series (sigma=...;delta=...) "
            "over SO(2m+1,1) and a discrete series (sigma=...;lambda=...) below it"
        )
    ok = gp_tempered_check(big, small)
    payload = {
        "group": str(group),
        "big": descriptor_to_json(big),
        "small": descriptor_to_json(small),
        "nonzero": ok,
    }
    _emit(args, payload, f"nonzero {ok}")
    return 0


def _cmd_period(args: argparse.Namespace) -> int:
    from .periods import minimal_k_type_trivial_rho, period_value

    if args.ktype:
        label = minimal_k_type_trivial_rho(args.n, args.i)
        payload = {"n": args.n, "i": args.i, "minimal_k_type": label.to_json()}
        _emit(args, payload, label.pretty() + f"  dim {label.dimension}")
        return 0
    value = period_value(args.n, args.i)
    payload = {"n": args.n, "i": args.i, **value.to_json()}
    _emit(args, payload, value.pretty())
    return 0


def _cmd_distinguished(args: argparse.Namespace) -> int:
    from .periods import distinguished_subgroup, is_aq_lambda

    group = GroupTag.parse(args.group)
    e = parse_enhanced(group, args.enhanced)
    aq = is_aq_lambda(e)
    if aq is None:
        payload = {"group": str(group), "param": e.to_json(), "aq": None}
        _emit(args, payload, "not of cohomologically induced shape")
        return 0
    sub = distinguished_subgroup(e)
    payload = {
        "group": str(group),
        "param": e.to_json(),
        "aq": aq.to_json(),
        "distinguished_for": str(sub),
    }
    _emit(args, payload, f"distinguished for {sub}")
    return 0


def _cmd_chain(args: argparse.Namespace) -> int:
    from .periods import distinguishing_chain

    group = GroupTag.parse(args.group)
    e = parse_enhanced(group, args.enhanced)
    target = GroupTag.parse(args.target)
    psi = Signature.parse(args.psi)
    chain = distinguishing_chain(e, target, psi)
    payload = {
        "group": str(group),
        "target": str(target),
        "psi": psi.value,
        "found": chain is not None,
        "chain": None
        if chain is None
        else [{"group": str(t.group), **t.to_json()} for t in chain],
    }
    if chain is None:
        _emit(args, payload, "no chain")
    else:
        rows = [[str(t.group), t.height, t.sig.value, theta_param_str(t)] for t in chain]
        _emit(args, payload, _table(["group", "height", "sig", "theta-parameter"], rows))
    return 0


def _cmd_cohomology(args: argparse.Namespace) -> int:
    from .cohomology import bilinear_gate, pairing_trivial_rho

    if args.gate is not None:
        if args.group is None or args.enhanced is None:
            raise OutOfRangeError("cohomology gate mode needs --group and --enhanced")
        group = GroupTag.parse(args.group)
        big = parse_enhanced(group, args.enhanced)
        small = parse_enhanced(group.subgroup, args.gate)
        coeff_big = (
            Weight(_parse_csv_ints(args.coeff)) if args.coeff is not None else big.s
        )
        coeff_small = (
            Weight(_parse_csv_ints(args.subcoeff)) if args.subcoeff is not None else small.s
        )
        degree = bilinear_gate(big, small, coeff_big, coeff_small)
        payload = {
            "group": str(group),
            "big": big.to_json(),
            "small": small.to_json(),
            "degree": degree,
        }
        _emit(args, payload, f"degree {degree}")
        return 0
    stray = [flag for flag, value in (
        ("--group", args.group), ("--enhanced", args.enhanced),
        ("--coeff", args.coeff), ("--subcoeff", args.subcoeff),
    ) if value is not None]
    if stray:
        raise OutOfRangeError(f"cohomology {', '.join(stray)} only apply in gate mode (--gate)")
    if args.n is None or args.i is None or args.j is None:
        raise OutOfRangeError("cohomology needs --n, --i and --j (or gate mode flags)")
    delta = Signature.parse(args.delta)
    desc = pairing_trivial_rho(args.n, args.i, delta, args.j, args.intro_rendering)
    payload = desc.to_json()
    _emit(args, payload, f"nonzero {desc.nonzero}")
    return 0


def _load_grids(path: str, defaults: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
    """Read a grid-bounds override file: {suite: {bound: integer}}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise OutOfRangeError(f"cannot read grid file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise OutOfRangeError(f"grid file {path!r} must hold a JSON object")
    data.pop("_comment", None)
    for suite, bounds in data.items():
        if suite not in SUITE_NAMES:
            raise UnknownSuiteError(
                f"grid file {path!r}: unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}"
            )
        if not isinstance(bounds, dict):
            raise OutOfRangeError(f"grid file {path!r}: bounds of {suite!r} must be an object")
        for key, value in bounds.items():
            if key not in defaults[suite]:
                raise OutOfRangeError(
                    f"grid file {path!r}: unknown bound {suite}.{key}; "
                    f"choose from {', '.join(defaults[suite])}"
                )
            if type(value) is not int:
                raise OutOfRangeError(
                    f"grid file {path!r}: bound {suite}.{key} must be an integer, got {value!r}"
                )
    return data


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .oracle import default_bounds, run_suite

    overrides = _load_grids(args.grids, default_bounds()) if args.grids else {}
    names = dict.fromkeys(args.suite or SUITE_NAMES)  # a repeated --suite runs once
    reports = [run_suite(name, overrides.get(name)) for name in names]
    payload = {
        "suites": [r.to_json() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    table = "\n".join(r.summary_line() for r in reports)
    _emit(args, payload, table)
    return 0 if payload["passed"] else 4


# ---------------------------------------------------------------- parser


# A flag is (name, add_argument keywords); the shared ones are spelled once here.
def _flag(name: str, **kw) -> tuple[str, dict]:
    return name, kw


def _like(flag: tuple[str, dict], **kw) -> tuple[str, dict]:
    return flag[0], {**flag[1], **kw}


SIGN = {"default": "+", "metavar": "SIGN"}
ENHANCED_SYNTAX = "w1,..;h=..;sig=.."
GROUP = _flag("--group", required=True, metavar="SO(N,1)")
WEIGHT = _flag("--weight", required=True, metavar="CSV")
ENHANCED = _flag("--enhanced", required=True, metavar=ENHANCED_SYNTAX)
DESCRIPTOR = [GROUP, _flag("--langlands", metavar="sigma=..;delta=..;lambda=.."),
              _like(ENHANCED, required=False)]

# name -> (help, handler, flags in usage order); every subcommand also takes --json/--table.
COMMANDS = {
    "classify": ("all irreducibles with the infinitesimal character of a weight", _cmd_classify,
                 [GROUP, WEIGHT]),
    "convert": ("convert between Langlands and enhanced parameters", _cmd_convert, DESCRIPTOR),
    "height": ("height of a representation", _cmd_height, DESCRIPTOR),
    "signature": ("signature of a representation", _cmd_signature, DESCRIPTOR),
    "hasse": ("Hasse or standard sequence starting at a finite-dimensional member", _cmd_hasse,
              [GROUP, WEIGHT, _flag("--sig0", **SIGN),
               _flag("--standard", action="store_true", help="twist into the standard sequence")]),
    "branch": ("branching targets or a single multiplicity", _cmd_branch,
               [GROUP, ENHANCED, _flag("--list", action="store_true", help="list all targets (default)"),
                _flag("--to", metavar=ENHANCED_SYNTAX,
                      help="target parameter over the subgroup; print the multiplicity")]),
    "branch-fd": ("restriction of a finite-dimensional module", _cmd_branch_fd,
                  [GROUP, WEIGHT, _flag("--delta", **SIGN)]),
    "diagram": ("symmetry-breaking arrows between two standard sequences", _cmd_diagram,
                [GROUP, WEIGHT, _flag("--subweight", **WEIGHT[1]), _flag("--sig", **SIGN)]),
    "gp-check": ("tempered pairing test at top height", _cmd_gp_check,
                 [_like(GROUP, metavar="SO(2m+1,1)"),
                  _flag("--big", required=True, metavar="sigma=..;delta=.."),
                  _flag("--small", required=True, metavar="sigma=..;lambda=..")]),
    "period": ("exact period value (or minimal K-type) for the regular family", _cmd_period,
               [_flag("--n", type=int, required=True), _flag("--i", type=int, required=True),
                _flag("--ktype", action="store_true", help="print the minimal K-type instead")]),
    "distinguished": ("distinguished subgroup of a cohomologically induced parameter",
                      _cmd_distinguished, [GROUP, ENHANCED]),
    "chain": ("stepwise distinguishing chain down to a character", _cmd_chain,
              [GROUP, ENHANCED, _flag("--target", required=True, metavar="SO(M,1)"),
               _flag("--psi", **SIGN)]),
    "cohomology": (
        "nonvanishing of induced bilinear forms on cohomology", _cmd_cohomology,
        [_flag("--n", type=int), _flag("--i", type=int), _flag("--delta", **SIGN),
         _flag("--j", type=int),
         _flag("--intro-rendering", action="store_true",
               help="label the pairing partner by the alternate published convention"),
         _like(GROUP, required=False, help="gate mode: the big group"),
         _like(ENHANCED, required=False, help="gate mode: big parameter"),
         _flag("--gate", metavar=ENHANCED_SYNTAX,
               help="gate mode: subgroup parameter; prints the pairing degree"),
         _flag("--coeff", metavar="CSV", help="gate mode: coefficient weight for the big side"),
         _flag("--subcoeff", metavar="CSV", help="gate mode: coefficient weight for the small side")],
    ),
    "selftest": ("run the brute-force verification suites", _cmd_selftest,
                 [_flag("--suite", action="append", choices=SUITE_NAMES,
                        help="run only this suite (repeatable)"),
                  _flag("--grids", metavar="PATH", help="JSON file overriding the default grid bounds")]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Register every subcommand, so usage text lists them all; only ``command`` gets its flags."""
    parser = argparse.ArgumentParser(
        prog="sobranch",
        description="Exact branching calculus for representations of SO(N,1)",
    )
    parser.add_argument("--version", action="version", version=f"sobranch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != command:
            continue
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="table", action="store_false", default=False,
                         help="machine-readable output (default)")
        fmt.add_argument("--table", dest="table", action="store_true",
                         help="aligned human-readable output")
        for flag, kw in flags:
            p.add_argument(flag, **kw)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The subcommand is the first argument that names one (the top level takes no values).
    args = build_parser(next((a for a in argv if a in COMMANDS), None)).parse_args(argv)
    try:
        return COMMANDS[args.command][1](args)
    except SobranchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
