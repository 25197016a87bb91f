"""The graypath benchmark: CLI-pass time and memory, and a traced run.

    python3 perfbench/run.py --workload intcat --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Each pass runs a workload's job list once in a fresh process (see
``passrun.py``); one client runs the passes back to back, a closed loop.
With ``--trace 0`` the run repeats untraced passes while another pass still
fits in ``--seconds`` and reports the medians of the end-to-end metrics.
With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one, with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check makes ``correct`` false and the exit code 1.  The per-pass job
digests and metrics are written to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RESULTS = WORK / "results"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# fresh processes that only import graypath, for the set-up time median
SETUP_SAMPLES = 5
# a run, its set-up processes and any stuck pass end well within this
RUN_LIMIT_S = 170.0


class PassFailed(Exception):
    pass


def _spawn(workload, seed, deadline, trace=None, round_trip=False,
           setup_only=False):
    """Run one pass process; returns its result with ``setup_s`` added."""
    workdir = tempfile.mkdtemp(prefix="pass-", dir=WORK)
    result_file = Path(workdir) / "result.json"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir,
           "--result", str(result_file)]
    if trace:
        cmd += ["--trace", str(trace)]
    if round_trip:
        cmd.append("--round-trip")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env.pop("GRAYPATH_THREADS", None)
    try:
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        t_end = time.monotonic()
        if proc.returncode != 0 or not result_file.exists():
            raise PassFailed(f"pass process exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
        result = json.loads(result_file.read_text())
    except subprocess.TimeoutExpired:
        raise PassFailed("pass process did not end in time") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = result["ready"] - t_spawn
    result["process_s"] = t_end - t_spawn
    return result


def _score(passes):
    """(attempted, failed, problems) over all passes.

    A job fails if an output check failed in any pass, or if its report or
    saved document differs between passes of the same run.
    """
    attempted = failed = 0
    problems = []
    first = passes[0]
    digests = {j["id"]: j["digest"] for j in first["jobs"]}
    for n, p in enumerate(passes):
        for j in p["jobs"]:
            attempted += 1
            bad = list(j["problems"])
            if j["digest"] != digests.get(j["id"]):
                bad.append("report differs from the first pass")
            if bad:
                failed += 1
                problems.append(f"pass {n} {j['id']}: {'; '.join(bad)}")
        if p["documents"] != first["documents"]:
            problems.append(f"pass {n}: saved documents differ from the first pass")
            failed += 1
    return attempted, failed, problems


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    # The first process after a checkout compiles the bytecode: not timed.
    _spawn(workload, seed, deadline, setup_only=True)
    setups = [_spawn(workload, seed, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES)]

    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    passes = []
    if trace:
        spans = RESULTS / f"{workload}-seed{seed}-spans.jsonl"
        passes.append(_spawn(workload, seed, deadline, round_trip=True))
        passes.append(_spawn(workload, seed, deadline, trace=spans))
    else:
        while True:
            passes.append(_spawn(workload, seed, deadline,
                                 round_trip=not passes))
            longest = max(p["process_s"] for p in passes)
            if time.monotonic() - start + longest > seconds:
                break
    setups += [p["setup_s"] for p in passes]

    attempted, failed, problems = _score(passes)
    if trace:
        untraced, traced = passes
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in traced["layers"].items()}
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": untraced["wall_s"],
                                            "unit": "s"}
        metrics["trace.wall_ratio"] = {
            "value": traced["wall_s"] / untraced["wall_s"], "unit": "ratio"}
        metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes),
                      "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in passes), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    record = dict(summary, workload=workload, seed=seed, trace=int(trace),
                  fail_ratio=failed / attempted, setup_samples=setups,
                  problems=problems, passes=[
                      {k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb",
                                         "setup_s", "jobs", "documents")}
                      for p in passes])
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for line in problems:
        print(f"output check failed: {line}", file=sys.stderr)
    return summary


def self_test():
    """Run the T1/INT subset untraced and traced; check every metric named
    in BENCHMARK.json is emitted with its unit, and that the traced
    counters repeat exactly in a second traced run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        summary = run(workloads.SELFTEST, 0, 1, trace)
        if not summary["correct"]:
            errors.append(f"trace={int(trace)}: output checks failed")
        got = summary["metrics"]
        for m in spec[key]:
            if m["name"] not in got:
                errors.append(f"{m['name']} not emitted")
            elif got[m["name"]]["unit"] != m["unit"]:
                errors.append(f"{m['name']}: unit {got[m['name']]['unit']}, "
                              f"want {m['unit']}")
        extra = set(got) - {m["name"] for m in spec[key]}
        if extra:
            errors.append(f"not in BENCHMARK.json: {sorted(extra)}")
        if trace:
            again = run(workloads.SELFTEST, 0, 1, trace)["metrics"]
            for name, m in got.items():
                if m["unit"] in ("count", "bytes") and \
                        again[name]["value"] != m["value"]:
                    errors.append(f"{name} did not repeat: {m['value']} "
                                  f"then {again[name]['value']}")
    for e in errors:
        print(f"self-test: {e}", file=sys.stderr)
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "graypath" / "cli.py").is_file():
        print(f"error: no graypath sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
