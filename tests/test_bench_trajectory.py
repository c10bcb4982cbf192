"""The committed benchmark trajectory stays comparable: every
``BENCH_<pr>_<workload>_{parent,change}.json`` has its partner, the two sides
were run alike on one environment, and each carries every end-to-end metric
that ``BENCHMARK.json`` declares.  Only reads files."""

import ast
import json
import pathlib
import re

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_NAME = re.compile(r"BENCH_(\d+)_([a-z0-9-]+)_(parent|change)\.json")
_FILES = sorted(p.name for p in _ROOT.glob("BENCH_*.json"))
_PAIRS = sorted({m.group(1, 2) for m in map(_NAME.fullmatch, _FILES) if m})
# run settings both sides of a pair must share
_RUN = ("seed", "seconds", "trace")


def _refused_mixes():
    """The environment keys perfbench/compare.py refuses to mix, read from
    its source without importing it."""
    tree = ast.parse((_ROOT / "perfbench" / "compare.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "_SAME"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/compare.py defines no _SAME")


def _load(name):
    return json.loads((_ROOT / name).read_text(encoding="utf-8"))


def test_trajectory_is_committed():
    assert _PAIRS


@pytest.mark.parametrize("name", _FILES)
def test_file_name_names_a_pr_workload_and_side(name):
    match = _NAME.fullmatch(name)
    assert match, f"{name} is not BENCH_<pr>_<workload>_<parent|change>.json"
    assert _load(name)["workload"] == match.group(2)


@pytest.mark.parametrize("pr, workload", _PAIRS)
def test_pair_sides_are_comparable(pr, workload):
    stem = f"BENCH_{pr}_{workload}"
    sides = {}
    for side in ("parent", "change"):
        path = _ROOT / f"{stem}_{side}.json"
        assert path.exists(), f"{path.name} is missing its partner"
        sides[side] = _load(path.name)
    parent, change = sides["parent"], sides["change"]
    for key in _RUN:
        assert parent[key] == change[key], f"{stem}: {key} differs"
    for key in _refused_mixes():
        assert parent["environment"][key] == change["environment"][key], \
            f"{stem}: environment {key} differs"


@pytest.mark.parametrize("name", _FILES)
def test_file_is_correct_and_has_every_end_to_end_metric(name):
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = _load(name)
    assert record["correct"] is True
    missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in record["metrics"]]
    assert not missing, f"{name} lacks {missing}"
