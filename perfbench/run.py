"""paramat benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload oneshot_queries --seed 0 --seconds 50 --trace 0

Run from the root of a paramat checkout; paramat is imported from its
``src``.  Workloads (see README.md in this directory):

* ``audit_grid``: the default 16x6 audit, ``run_table(AuditBudget(seed))``.
* ``oneshot_queries``: independent consequence queries given as text.
* ``subset_heavy``: paraconsistent queries over 10-16 premises.

With ``--trace 0`` one worker process times the work and the result holds
the end-to-end metrics.  With ``--trace 1`` an untraced and a traced worker
share the time, and the result holds the per-layer metrics and the tracing
overhead.  Set-up is timed in fresh processes.  Every answer is checked
against the oracle in this directory after the workers have exited; the
human-readable lines before the last one give details, and the last line is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from formulas import instance  # noqa: E402

# fresh processes that only set up, besides the measuring one: half before it
# and half after, a gap apart, since the host's speed changes within seconds
SETUP_PROBES = 16
PROBE_GAP_S = 0.2
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(root: str, deadline: float, workload: str, tmpl, seconds: float, trace: bool) -> tuple[list[dict], dict]:
    """Run one worker process: (its rounds, its closing summary)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), workload, str(seconds), str(int(trace)),
        ",".join(workloads.MATRICES[workload]),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, input=json.dumps(tmpl), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr.strip()}")
    *rounds, summary = [json.loads(line) for line in proc.stdout.splitlines()]
    if workload == "audit_grid" and rounds:
        # the grid's line, then one line per replay pass
        grid, *passes = rounds
        rounds = [{**grid, "passes": passes}]
    else:
        for k, rnd in enumerate(rounds):
            rnd["inputs"] = instance(tmpl, k)
    return rounds, summary


def _op_samples(rounds: list[dict]) -> list[list[float]]:
    """Operation times, one list per round (per replay pass on `audit_grid`)."""
    return [p["op_s"] for r in rounds for p in r.get("passes", [r])]


def _busy_s(rnd: dict) -> float:
    """Timed seconds of a round; an audit round's claim replays follow its grid."""
    return rnd["wall_s"] + sum(sum(p["op_s"]) for p in rnd.get("passes", ()))


def _best_times(rounds: list[dict]) -> list[float]:
    """Each operation's best time over the run's rounds, in round order.

    Rounds repeat the same operations.  The machine's speed flips between
    two levels within fractions of a second, and the best of several tries
    falls on the fast level every time, where a median flips with it.
    """
    samples = _op_samples(rounds)
    if not samples:
        raise BenchError("no operation was timed: " + "; ".join(r.get("error", "") for r in rounds))
    if len({len(ops) for ops in samples}) != 1:
        raise BenchError("rounds of one run differ in their operations")
    if len(samples[0]) <= TAIL_BEYOND:
        raise BenchError(f"a round had only {len(samples[0])} operations")
    return [min(times) for times in zip(*samples)]


def _wall_s(rounds: list[dict]) -> float:
    """Wall time of one round's work: the sum of each operation's best time
    over the rounds (on `audit_grid`, the wall time of the one grid).

    A whole round lasts seconds and seldom falls wholly on the machine's fast
    level; each operation's best over the rounds does, far more often.
    """
    if "passes" in rounds[0]:
        return rounds[0]["wall_s"]
    return sum(_best_times(rounds))


def _check(workload: str, runs: list[list[dict]]) -> tuple[int, list[str]]:
    """Check the rounds of each worker process."""
    checker = check.Checker(workload)
    attempted, failures = 0, []
    for rounds in runs:
        for k, rnd in enumerate(rounds):
            n, bad = checker.check_round(k, rnd)
            attempted += n
            failures += bad
    return attempted, failures


def _setup_probes(root, deadline, workload, tmpl, count: int) -> list[float]:
    setups = []
    for _ in range(count):
        time.sleep(PROBE_GAP_S)
        setups.append(_worker(root, deadline, workload, tmpl, 0, False)[1]["setup_s"])
    return setups


def _end_to_end(root, deadline, args, tmpl) -> tuple[dict, list[dict], list[str]]:
    setups = _setup_probes(root, deadline, args.workload, tmpl, SETUP_PROBES // 2)
    rounds, out = _worker(root, deadline, args.workload, tmpl, args.seconds, False)
    setups.append(out["setup_s"])
    setups += _setup_probes(root, deadline, args.workload, tmpl, SETUP_PROBES - SETUP_PROBES // 2)
    ops = sorted(_best_times(rounds))
    n, tries = len(ops), len(_op_samples(rounds))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (_wall_s(rounds), "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (ops[-TAIL_BEYOND - 1] * 1e3, "ms"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    lines = [
        f"setup_s: median of {len(setups)} fresh processes",
        f"operations: {n} per round, each timed as its best of {tries} identical rounds",
        f"wall_s: {'the one grid' if 'passes' in rounds[0] else 'the sum of the best times'}; "
        "round walls " + ", ".join(f"{rnd['wall_s']:.4g}" for rnd in rounds),
        f"op_tail_ms: p{100 * (n - TAIL_BEYOND) / n:.2f} of {n} operations, {TAIL_BEYOND} beyond it",
    ]
    return metrics, [rounds], lines


def _per_layer(root, deadline, args, tmpl) -> tuple[dict, list[dict], list[str]]:
    half = args.seconds / 2
    plain, _ = _worker(root, deadline, args.workload, tmpl, half, False)
    traced, traced_out = _worker(root, deadline, args.workload, tmpl, half, True)
    metrics = {name: tuple(v) for name, v in traced_out["layers"].items()}
    busy = statistics.mean(_busy_s(r) for r in traced)
    for layer in tracer.LAYERS:
        metrics[f"layer.{layer}.share"] = (metrics[f"layer.{layer}.self_s"][0] / busy, "ratio")
    plain_wall = _wall_s(plain)
    overhead = _wall_s(traced) - plain_wall
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / plain_wall, "ratio")
    lines = [
        f"per-layer values are per round, averaged over {len(traced)} traced rounds "
        f"(matrix.build.self_s: per process); overhead against {len(plain)} untraced rounds"
    ]
    return metrics, [plain, traced], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "paramat", "__init__.py")):
        print(f"error: {root} is not a paramat checkout (no src/paramat)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    measure = _per_layer if args.trace else _end_to_end
    # the template is built here, so its tables never count towards a worker's memory
    tmpl = workloads.template(args.workload, args.seed)
    try:
        metrics, runs, lines = measure(root, deadline, args, tmpl)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failures = _check(args.workload, runs)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} operations failed)")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
