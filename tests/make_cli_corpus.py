"""Write tests/cli_corpus_golden.json, the CLI corpus that
tests/test_cli.py::TestCliCorpus replays.

Each entry is a call of ``sobranch.cli.main(argv)`` in process, with its
exit code and the sha256 of its stdout and of its stderr.  The calls are
the argvs of the cli-mix benchmark corpus, each README example in JSON and
``--table`` mode (but the default ``selftest``, which tests/selftest_golden.json
pins byte for byte), the size and digit refusals of tests/test_cli.py, the
SO(2,1) ``distinguished`` refusal, and two ``selftest --grids`` files that
must be refused.

Run from the repository root:

    PYTHONPATH=src python tests/make_cli_corpus.py

A change that alters an entry regenerates the file and names the entry, and
why it changed, in CHANGES.md.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "cli_corpus_golden.json"
CLI_MIX = ROOT / "perfbench" / "corpus" / "cli-mix.json.gz"


def corpus_argvs() -> list[list[str]]:
    from test_cli import EXAMPLES, HUGE_ANSWER

    mix = json.loads(gzip.decompress(CLI_MIX.read_bytes()))
    argvs = [op["argv"] for ops in mix["valid"].values() for op in ops]
    argvs += [op["argv"] for op in mix["malformed"]]
    argvs += [argv + [mode] for argv in EXAMPLES if argv != ["selftest"]
              for mode in ("--json", "--table")]

    both = [argv + [mode] for mode in ("--json", "--table") for argv in [
        *HUGE_ANSWER.values(),
        ["branch", "--group", "SO(5,1)", "--enhanced", f"1{'0' * 29},0,0;h=0;sig=+"],
        ["branch-fd", "--group", "SO(5,1)", "--weight", f"1{'0' * 29},0,0", "--delta", "+"],
        *(["cohomology", "--n", str(n), "--i", "1", "--j", "1"]
          for n in (10_000, 10_001, 2_000_000)),  # 10**30 is in HUGE_ANSWER
        *(["period", "--n", n, "--i", i, "--ktype"]
          for n, i in (("20000", "10000"), ("1000000", "500000"), (str(10**3999), "1"))),
    ]]
    period = [["period", "--n", n, "--i", i] for n, i in (
        ("2000", "1000"), ("300000", "300000"), ("100000", "99992"), ("1" + "0" * 400, "5"),
    )]
    limit = sys.get_int_max_str_digits()
    digits = [
        [command, "--group", "SO(3,1)", flag, template.format("9" * width)]
        for command, flag, template in (
            ("classify", "--weight", "{},0"),
            ("convert", "--enhanced", "{},0;h=1;sig=+"),
            ("height", "--enhanced", "{},0;h=1;sig=+"),
            ("convert", "--langlands", "sigma=0;delta=+;lambda=-{}"),
        )
        for width in (limit - 1, limit)
    ] if limit else []
    grids = [["selftest", "--grids", path]
             for path in ("tests/grids_nested_too_deep.json", "/dev/zero")]
    return argvs + both + period + digits + [
        ["distinguished", "--group", "SO(2,1)", "--enhanced", "0;h=1;sig=pm"],
    ] + grids


def replay(argv: list[str]) -> dict:
    """One corpus entry; a usage error is marked, as its text is argparse's."""
    from test_cli import run_in_process

    code, out, err = run_in_process(argv)
    entry = {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.encode()).hexdigest(),
    }
    if err.startswith("usage: "):
        entry["argparse"] = True
    return entry


def main() -> None:
    os.chdir(ROOT)  # the argvs name grids files relative to the root
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to the terminal
    calls = [replay(argv) for argv in corpus_argvs()]
    head = {
        "_comment": "(exit, sha256 of stdout, sha256 of stderr) of sobranch.cli.main(argv) in "
                    "process, run from the repository root with COLUMNS=80; written by "
                    "tests/make_cli_corpus.py, checked by tests/test_cli.py::TestCliCorpus. "
                    "Usage errors are pinned on the Python minor version given only.",
        "python": list(sys.version_info[:2]),
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }
    lines = [json.dumps(call, ensure_ascii=False) for call in calls]
    text = json.dumps(head, ensure_ascii=False, indent=1)[:-2]
    GOLDEN.write_text(text + ',\n "calls": [\n  ' + ",\n  ".join(lines) + "\n ]\n}\n",
                      encoding="utf-8")
    print(f"wrote {len(calls)} calls to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.path.insert(0, str(TESTS))
    main()
