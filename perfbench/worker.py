"""One workload process: set up paramat, time rounds of work, print JSON.

    python3 perfbench/worker.py <workload> <seconds> <trace 0|1> <matrix,...> < template.json

run.py starts it in a fresh interpreter from the checkout root, with the
checkout's ``src`` on PYTHONPATH, so each process pays its own imports and
builds its own tables.  Set-up is the import of ``paramat.cli`` (every
module, and click) plus the matrices named on the command line.  The set-up
clock starts before anything else is imported: the modules loaded here
before it (``os``, ``sys``, ``time``) are loaded by the interpreter itself.

The round template, built by run.py, is read from standard input after
set-up.  Rounds run until the next one would overrun `seconds`; with
`seconds` 0 the process only sets up.  Each round's inputs are rendered
before its clock starts.  Its answers are converted to text and printed as
one JSON line as soon as its clock stops, and then dropped, so the memory
the process holds does not grow with the number of rounds; on `audit_grid`
the grid and each replay pass get a line of their own.  The last line
holds set-up time, peak memory and, when traced, the per-layer figures.
run.py checks the answers.
"""

import os
import sys
import time

clock = time.perf_counter
REPLAY_PASSES = 200
PASS_GAP_S = 0.02  # least gap between replay passes


def _build(paramat, selector: str):
    family, _, n = selector.partition(":")
    if family == "ln":
        return paramat.lukasiewicz(int(n))
    if family == "gn":
        return paramat.goedel(int(n))
    return paramat.builtin(selector)


def _run_query(paramat, m, q: dict):
    """Parse the query's text and answer it, as the CLI would."""
    kind = q["kind"]
    if kind == "classify":
        return paramat.classify(m, paramat.parse(q["alpha"]))
    gamma = paramat.FormulaSet.from_text(", ".join(q["gamma"]))
    if kind == "is_consistent":
        return paramat.is_consistent(m, gamma)
    if kind == "maximal_consistent_subsets":
        return paramat.maximal_consistent_subsets(m, gamma)
    if kind == "is_para_consistent":
        return paramat.is_para_consistent(m, gamma)
    alpha = paramat.parse(q["alpha"])
    if kind == "entails":
        return paramat.entails(m, gamma, alpha)
    if kind == "para_entails":
        return paramat.para_entails(m, gamma, alpha)
    if kind == "logic_entails_2":
        return paramat.logic_entails(paramat.LogicSpec(m, 2), gamma, alpha)
    raise ValueError(f"unknown query kind {kind!r}")


def _encode(kind: str, result):
    """JSON form of an answer; formulas as paramat prints them."""
    if kind == "entails":
        model = result.countermodel
        return {
            "holds": result.holds,
            "countermodel": None if model is None else {k: str(v) for k, v in model.items()},
        }
    if kind == "para_entails":
        witness = result.witness
        return {"holds": result.holds, "witness": None if witness is None else [str(f) for f in witness]}
    if kind == "classify":
        return result.value
    if kind == "maximal_consistent_subsets":
        return [[str(f) for f in s] for s in result]
    return bool(result)


CPUS = sorted(os.sched_getaffinity(0))


def _rotate_cpu(k: int) -> None:
    """Run repetition `k` on the next CPU in turn.

    On a shared host each CPU's speed flips with its neighbours' load, and
    often one CPU is fast while another is slow; taking repetitions on each
    CPU in turn lets the best-of-rounds figures find a fast one.
    """
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def _query_round(paramat, matrices, queries):
    results, op_s = [], []
    started = clock()
    for q in queries:
        t = clock()
        try:
            answer = _run_query(paramat, matrices[q["logic"]], q)
        except Exception as exc:  # a failed operation is counted, not fatal
            answer = exc
        op_s.append(clock() - t)
        if isinstance(answer, Exception):
            results.append({"error": f"{type(answer).__name__}: {answer}"})
        else:
            results.append(_encode(q["kind"], answer))
    return {"wall_s": clock() - started, "op_s": op_s, "results": results}


def _audit_round(paramat, matrices, inputs, passes_wanted: int, until: float, emit) -> None:
    """One default audit, then `passes_wanted` replays of each claim of each
    FAILS witness, one operation per claim, with letters renamed per pass so
    that nothing the grid computed can be reused.  The passes are spread
    over the time left until `until`, so that slow stretches of the machine
    cannot cover all of them.  The grid and then each pass are handed to
    `emit` as soon as they are timed, so memory does not grow with passes."""
    import gc

    from formulas import column_selector, renamed_claim

    t = clock()
    try:
        report = paramat.run_table(paramat.AuditBudget(seed=inputs["audit_seed"]))
    except Exception as exc:
        emit({"wall_s": clock() - t, "error": repr(exc)})
        return
    wall_s = clock() - t
    grid = report.to_json()["grid"]
    del report
    claims = [
        (cell, claim)
        for cell, verdict in grid.items()
        if verdict["outcome"] == "FAILS"
        for claim in (verdict["witness"] or {}).get("claims", ())
    ]
    cells = {c: {"outcome": v["outcome"], "witness": v["witness"]} for c, v in grid.items()}
    emit({"wall_s": wall_s, "results": {"grid": cells, "claims": claims}})
    del grid, cells
    gc.collect()
    for j in range(passes_wanted):
        time.sleep(max(PASS_GAP_S, (until - clock()) / (passes_wanted - j)))
        _rotate_cpu(j)
        op_s, replays = [], []
        for cell, claim in claims:
            m = matrices[column_selector(cell.split("/")[1])]
            # suffixes of one width, so that every pass parses as much text
            claim = renamed_claim(claim, f"{j:03d}")
            t = clock()
            try:
                ok = paramat.replay_claims(m, [claim])
            except Exception as exc:
                ok = f"{type(exc).__name__}: {exc}"
            op_s.append(clock() - t)
            replays.append(ok)
        emit({"op_s": op_s, "replays": replays})


def main() -> None:
    workload, seconds, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    selectors = sys.argv[4].split(",")
    started = clock()
    import paramat
    import paramat.cli  # noqa: F401  (the CLI's imports, click included, count as set-up)

    tracer = None
    if trace:
        # matrices are built under the tracer; a traced run reports no set-up time
        from tracer import Tracer

        tracer = Tracer().__enter__()
    try:
        matrices = {sel: _build(paramat, sel) for sel in selectors}
        setup_s = clock() - started

        import gc
        import json
        import resource

        from formulas import instance

        src = os.path.join(os.getcwd(), "src")
        if not os.path.abspath(paramat.__file__).startswith(src + os.sep):
            sys.exit(f"paramat was imported from {paramat.__file__}, not from {src}")
        tmpl = json.load(sys.stdin)
        emit = lambda record: print(json.dumps(record))
        rounds = 0
        began = clock()
        while seconds > 0:
            inputs = instance(tmpl, rounds)
            if workload == "audit_grid":
                # one grid per process, as `paramat table` runs it; a traced
                # run times layers, not replays: it skips them, so the audit
                # layer's figures are the grid's own
                passes = 0 if trace else REPLAY_PASSES
                _audit_round(paramat, matrices, inputs, passes, began + seconds, emit)
                rounds += 1
                break
            _rotate_cpu(rounds)
            # each round starts from a collected heap, so cyclic garbage left
            # by earlier rounds adds neither time nor memory to it
            gc.collect()
            emit(_query_round(paramat, matrices, inputs))
            rounds += 1
            spent = clock() - began
            if spent + spent / rounds > seconds:
                break
    finally:
        if tracer is not None:
            tracer.__exit__(None, None, None)
    out = {"setup_s": setup_s, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["layers"] = tracer.metrics(max(rounds, 1))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
