"""One benchmark pass, in a fresh process.

Imports graypath from the checkout's ``src/``, stamps the moment it is ready
(``time.monotonic`` is system-wide, so the parent turns the stamp into set-up
time), runs the workload's job list once, checks the outputs and writes a
JSON result file.  With ``--trace`` the layer entry points are wrapped while
the jobs run, and the spans and per-layer metrics are written out at the end.
With ``--round-trip`` every saved document is also reloaded and re-dumped;
later passes of a run compare the documents' digests with this one.

    python3 perfbench/passrun.py --workload intcat --seed 1 \
        --workdir DIR --result FILE [--trace SPANS] [--round-trip] \
        [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["cli", "fixtures", "presentation", "kernel", "resolution",
           "pathspace", "pathcomp", "highercells", "homspace", "faults"]


def _import_graypath():
    sys.path.insert(0, str(ROOT / "src"))
    return {m: importlib.import_module(f"graypath.{m}") for m in MODULES}


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main.main(args=["--report", "json", *argv],
                               prog_name="graypath", standalone_mode=False)
        except cli.click.ClickException as exc:
            exc.show()
            rc = exc.exit_code
    return (0 if rc is None else rc), out.getvalue(), err.getvalue()


def _run_job(job, cli, tracer):
    """(exit code, report text, error text); never raises."""
    try:
        if job.argv is not None:
            thunk = lambda: _run_cli(cli, job.argv)  # noqa: E731
            return tracer.call("cli", "main", thunk) if tracer else thunk()
        fn, args = job.call
        doc = fn(*args)
        return 0, json.dumps(doc, indent=1, sort_keys=True) + "\n", ""
    except Exception:  # a crashing job is a failed job, not a failed pass
        return "exception", "", traceback.format_exc()


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", metavar="SPANS", default=None,
                    help="wrap the layers and write the spans to SPANS")
    ap.add_argument("--round-trip", action="store_true",
                    help="check that saved documents re-dump to the same bytes")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    mods = _import_graypath()
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    import workloads
    from tracer import Tracer, layer_metrics

    jobs = workloads.jobs(args.workload, args.seed)
    cli, presentation = mods["cli"], mods["presentation"]
    os.chdir(args.workdir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    runs = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for job in jobs:
        if tracer:
            tracer.begin_job(job.id)
        t = time.perf_counter()
        rc, text, err = _run_job(job, cli, tracer)
        runs.append((job, rc, text, err, time.perf_counter() - t))
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.uninstall()

    # output checks, outside the timed region
    records = []
    documents = {}
    for job, rc, text, err, seconds in runs:
        problems = workloads.check(job, rc, text)
        if job.writes and not problems:
            data = Path(job.writes).read_bytes()
            documents[job.writes] = _sha(data)
            if args.round_trip and presentation.dumps(
                    presentation.load(job.writes)).encode("utf-8") != data:
                problems.append("document does not re-dump to the same bytes")
        if err.strip() and problems:
            problems.append(err.strip().splitlines()[-1])
        records.append({"id": job.id, "seconds": seconds,
                        "digest": _sha(text.encode("utf-8")),
                        "problems": problems})

    result.update({
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "jobs": records,
        "documents": documents,
    })
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, len(jobs))
        result["spans"] = len(tracer.spans)
        with open(args.trace, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"layer": s[0], "fn": s[1],
                                     "start": s[2], "end": s[3],
                                     "parent": s[4], "job": s[5],
                                     "redundant": s[6],
                                     "counters": s[7]}) + "\n")
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
