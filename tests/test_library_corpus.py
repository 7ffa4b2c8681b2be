"""A stride sample of the library-mix corpus, replayed through the library.

``perfbench/corpus/library-mix.json.gz`` pins, for each captured call of
ten library families, the digest of its public JSON answer.  Replaying
every 97th entry of each family makes a library change that moves an
answer fail here, as a CLI change fails ``TestCliCorpus``.  The corpus
and the op table are read from ``perfbench/plan.py``; nothing there is
written.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

STRIDE = 97
PLAN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "plan.py"


def _load_plan():
    spec = importlib.util.spec_from_file_location("perfbench_plan", PLAN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


plan = _load_plan()
POOLS = plan.load_corpus("library-mix")["pools"]
OPS = plan.in_process_ops("library-mix")


@pytest.mark.parametrize("family", sorted(POOLS))
def test_sample_matches_digests(family):
    call, canon = OPS[family]
    sample = POOLS[family][::STRIDE]
    assert sample
    mismatched = [e["args"] for e in sample if plan.digest(canon(call(*e["args"]))) != e["digest"]]
    assert mismatched == [], f"{len(mismatched)} of {len(sample)} {family} calls moved"
