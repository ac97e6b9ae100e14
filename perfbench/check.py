"""Check a worker's answers against the reference oracle.

Runs in run.py's process, after the worker has exited, so it neither takes
time from the timed rounds nor adds to the worker's peak memory.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import oracle


def _query_ok(q: dict, answer) -> bool:
    if isinstance(answer, dict) and "error" in answer:
        return False
    m = oracle.MATRICES[q["logic"]]
    gamma = [oracle.parse(t) for t in q.get("gamma", ())]
    alpha = oracle.parse(q["alpha"]) if "alpha" in q else None
    kind = q["kind"]
    if kind == "entails":
        holds, _ = oracle.entails(m, gamma, alpha)
        if answer["holds"] != holds:
            return False
        model = answer["countermodel"]
        if holds:
            return model is None
        valuation = {k: Fraction(v) for k, v in model.items()}
        return oracle.is_countermodel(m, gamma, alpha, valuation)
    if kind == "is_consistent":
        return answer == oracle.is_consistent(m, gamma)
    if kind == "classify":
        return answer == oracle.classify(m, alpha)
    if kind == "para_entails":
        if answer["holds"] != oracle.para_entails(m, gamma, alpha):
            return False
        if not answer["holds"]:
            return answer["witness"] is None
        return oracle.witness_ok(m, gamma, alpha, [oracle.parse(t) for t in answer["witness"]])
    if kind == "maximal_consistent_subsets":
        got = [frozenset(oracle.parse(t) for t in s) for s in answer]
        return len(set(got)) == len(got) and set(got) == oracle.maximal_consistent_subsets(m, gamma)
    if kind == "is_para_consistent":
        return answer == oracle.is_para_consistent(m, gamma)
    if kind == "logic_entails_2":
        return answer == oracle.logic_entails(m, gamma, alpha, 2)
    raise ValueError(f"unknown query kind {kind!r}")


def _audit_failures(results: dict, passes: list[dict]) -> list[str]:
    """Cells off the expected grid, or whose evidence does not replay, and
    replay operations that did not confirm their claim."""
    bad = []
    grid = results["grid"]
    for cell, outcome in oracle.expected_grid().items():
        verdict = grid.get(cell)
        if verdict is None or verdict["outcome"] != outcome:
            bad.append(f"{cell}: expected {outcome}, got {verdict and verdict['outcome']}")
            continue
        claims = (verdict["witness"] or {}).get("claims", ())
        if outcome == "FAILS" and not claims:
            bad.append(f"{cell}: FAILS without replayable claims")
        m = oracle.column_matrix(cell.split("/")[1])
        for claim in claims:
            if not oracle.replay_claim(m, claim):
                bad.append(f"{cell}: claim does not replay: {claim}")
                break
    for p in passes:
        for (cell, claim), replayed in zip(results["claims"], p["replays"]):
            if replayed is not True:
                bad.append(f"{cell}: paramat.replay_claims gave {replayed!r} for {claim}")
    return bad


def _unsuffix(value, suffix: str):
    """`value` (JSON data) with the round's letter suffix taken off again."""
    if isinstance(value, str):
        return re.sub(rf"\b([a-z]){re.escape(suffix)}\b", r"\1", value)
    if isinstance(value, list):
        return [_unsuffix(v, suffix) for v in value]
    if isinstance(value, dict):
        return {_unsuffix(k, suffix): _unsuffix(v, suffix) for k, v in value.items()}
    return value


class Checker:
    """Counts the failed operations of a run's rounds.

    Rounds repeat one template under renamed letters, so each answer is
    renamed back and the oracle judges each distinct (query, answer) pair
    once; a round whose answer differs from another round's is judged anew.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self._verdicts: dict[str, bool] = {}

    def check_round(self, k: int, rnd: dict) -> tuple[int, list[str]]:
        """(operations attempted, descriptions of the failed ones) for round `k`."""
        if self.workload == "audit_grid":
            cells = len(oracle.expected_grid())
            if "error" in rnd:
                return cells, [f"run_table raised {rnd['error']}"] * cells
            replays = sum(len(p["replays"]) for p in rnd["passes"])
            return cells + replays, _audit_failures(rnd["results"], rnd["passes"])
        bad = []
        for q, answer in zip(rnd["inputs"], rnd["results"]):
            suffix = str(k)
            formulas = {key: _unsuffix(q[key], suffix) for key in ("gamma", "alpha") if key in q}
            plain = [{**q, **formulas}, _unsuffix(answer, suffix)]
            key = json.dumps(plain, sort_keys=True)
            if key not in self._verdicts:
                self._verdicts[key] = _query_ok(*plain)
            if not self._verdicts[key]:
                bad.append(f"{q['kind']} {q}: got {answer}")
        return len(rnd["inputs"]), bad
