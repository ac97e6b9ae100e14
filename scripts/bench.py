#!/usr/bin/env python3
"""Run the benchmark on one checkout and record its result lines in a BENCH file.

    python3 scripts/bench.py <checkout> <out.json> [parent|change]

Runs the checkout's own ``perfbench/run.py`` from the checkout's root, on the
workloads ``audit_grid`` and ``subset_heavy``, each at ``--trace 0`` (the
end-to-end metrics) and ``--trace 1`` (the per-layer ones), with seed 0 and
the ``run_seconds`` of this repository's ``BENCHMARK.json``.  Each run's last
line, its JSON result, is stored under the side named by the third argument
("change" by default) in ``out.json``; a side already there is replaced and
the other kept, so a parent and a change measured on one machine end up in
one file.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("audit_grid", "subset_heavy")
SEED = 0


def _src_tree(checkout: Path) -> str | None:
    """The git tree of the checkout's committed ``src``, which names the code
    measured whatever commit later holds it; None outside a git work tree."""
    out = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD:src"], capture_output=True, text=True
    )
    return out.stdout.strip() if out.returncode == 0 else None


def _run(checkout: Path, workload: str, trace: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr.strip()}")
    return json.loads(out.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] not in ("parent", "change")):
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    checkout, out_path = Path(argv[0]).resolve(), Path(argv[1])
    side = argv[2] if len(argv) == 3 else "change"
    if not (checkout / "perfbench" / "run.py").is_file():
        print(f"error: {checkout} has no perfbench/run.py", file=sys.stderr)
        return 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"{side}: {workload} --trace {trace} ({seconds} s)", file=sys.stderr)
            result = _run(checkout, workload, trace, seconds)
            runs.append({"workload": workload, "trace": trace, "result": result})
    bench = json.loads(out_path.read_text()) if out_path.exists() else {}
    bench[side] = {
        "src_tree": _src_tree(checkout),
        "seed": SEED,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "runs": runs,
    }
    out_path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
