"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import digests  # noqa: E402
from tracer import layer_metrics  # noqa: E402


def test_self_test_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--self-test"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("self-test passed")


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "intcat", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_times_and_counters():
    # span: [layer, fn, start, end, parent, job, redundant, counters]
    spans = [
        ["cli", "main", 0.0, 10.0, -1, "j", False, None],
        ["pathspace", "build_pathspace", 1.0, 5.0, 0, "j", False, None],
        ["pathspace", "path_cells", 1.0, 2.0, 1, "j", False, {"cells": 8}],
        ["pathspace", "materialize", 2.0, 4.0, 1, "j", False, {"cells": 8}],
        ["pathspace", "build_pathspace", 5.0, 6.0, 0, "j", True, None],
        ["kernel", "check_gray_axioms", 6.0, 8.0, 0, "j", False,
         {"tuples": 100}],
    ]
    m = layer_metrics(spans, jobs=1)
    assert m["cli.self_s"] == (3.0, "s")
    assert m["pathspace.busy_s"] == (5.0, "s")
    assert m["pathspace.self_s"] == (5.0, "s")
    assert m["pathspace.build_pathspace.calls"] == (2, "count")
    assert m["pathspace.build_pathspace.redundant"] == (1, "count")
    assert m["pathspace.keep_ratio"] == (1.0, "ratio")
    assert m["kernel.tuples_per_s"] == (50.0, "1/s")
    assert m["faults.detection_ratio"] == (0.0, "ratio")


def test_digest_diff(tmp_path):
    def result(name, report_digest):
        path = tmp_path / name
        path.write_text(json.dumps({"passes": [{
            "jobs": [{"id": "a", "digest": "1" * 64},
                     {"id": "b", "digest": report_digest}],
            "documents": {}}]}))
        return str(path)
    a, b = result("a.json", "2" * 64), result("b.json", "3" * 64)
    lines = digests.diff(digests.digests(a), digests.digests(b))
    assert lines[0].startswith("same") and lines[1].startswith("differs")
    assert digests.main([a, b]) == 0
