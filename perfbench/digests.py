"""Per-job digest diff between two benchmark result files.

    python3 perfbench/digests.py perfbench/_work/results/A.json B.json

Each result file records the sha256 of every job's JSON report (and of
every saved document) per pass.  This prints which jobs' reports are
identical in both files and which differ, so a change can show that its
reports stayed byte-identical.  It is for information: the exit code is 0
whatever the diff, and 2 only for an unreadable file.
"""

from __future__ import annotations

import json
import sys


def digests(path):
    """{job id or document name: digest} from the first pass of a result."""
    with open(path, encoding="utf-8") as fh:
        first = json.load(fh)["passes"][0]
    out = {j["id"]: j["digest"] for j in first["jobs"]}
    out.update({f"document:{name}": d
                for name, d in first["documents"].items()})
    return out


def diff(a, b):
    """Lines describing each key of either mapping: same, differs, or only
    present on one side."""
    lines = []
    for key in sorted(set(a) | set(b)):
        if key not in b:
            lines.append(f"only in first   {key}")
        elif key not in a:
            lines.append(f"only in second  {key}")
        elif a[key] == b[key]:
            lines.append(f"same            {key}")
        else:
            lines.append(f"differs         {key}  {a[key][:12]} {b[key][:12]}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: digests.py RESULT_A.json RESULT_B.json", file=sys.stderr)
        return 2
    try:
        a, b = digests(argv[0]), digests(argv[1])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = diff(a, b)
    print("\n".join(lines))
    changed = sum(1 for line in lines if not line.startswith("same"))
    print(f"{len(lines) - changed} same, {changed} different or unmatched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
