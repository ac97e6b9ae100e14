"""Auditor tests: claim replay, per-cell verdicts, and the full results grid."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from paramat import audit
from paramat.audit import (
    COLUMN_NAMES,
    KNOWN_DISCREPANCIES,
    PUBLISHED_TABLE,
    TABLE_ROWS,
    AuditBudget,
    Method,
    Outcome,
    PropertyId,
    check_property,
    replay_claim,
    replay_claims,
    run_table,
    table_columns,
    verify_witness_suite,
)
from paramat.matrix import builtin
from paramat.para import LogicSpec

L3, G3, K3 = (builtin(n) for n in ("l3", "g3", "k3"))

SMALL = AuditBudget(samples=40, depth=3, letters=3, gamma_size=5, seed=0)

# The JSON of run_table(SMALL); it changes only together with a CHANGES.md
# entry explaining the change in output.
GOLDEN_SMALL = Path(__file__).parent / "data" / "run_table_small.json"


class TestBudget:
    def test_defaults(self):
        b = AuditBudget()
        assert (b.samples, b.depth, b.letters, b.gamma_size, b.seed) == (
            500, 3, 3, 5, 0,
        )
        b.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 0},
            {"depth": -1},
            {"letters": 0},
            {"gamma_size": 0},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            AuditBudget(**kwargs).validate()


class TestReplay:
    def test_entails(self):
        assert replay_claim(
            L3, {"kind": "entails", "gamma": ["p | q", "~p"], "alpha": "q",
                 "expected": True}
        )
        assert not replay_claim(
            L3, {"kind": "entails", "gamma": [], "alpha": "q", "expected": True}
        )

    def test_para_entails(self):
        assert replay_claim(
            L3, {"kind": "para_entails", "gamma": ["p", "~p"], "alpha": "q",
                 "expected": False}
        )

    def test_consistency_kinds(self):
        assert replay_claim(
            L3, {"kind": "consistent", "gamma": ["p", "~p"], "expected": False}
        )
        assert replay_claim(
            L3, {"kind": "para_consistent", "gamma": ["p", "~p"], "expected": True}
        )

    def test_classify(self):
        assert replay_claim(
            G3, {"kind": "classify", "alpha": "p & ~p", "expected": "contradiction"}
        )

    def test_consistent_subsets(self):
        assert replay_claim(
            L3,
            {
                "kind": "consistent_subsets",
                "gamma": ["p", "~p"],
                "expected": [[], ["p"], ["~p"]],
            },
        )

    def test_eval(self):
        assert replay_claim(
            K3,
            {"kind": "eval", "valuation": {"p": "1/2"}, "formula": "p -> p",
             "expected": "1/2"},
        )

    def test_star_property(self):
        assert replay_claim(L3, {"kind": "star_property", "expected": True})

    def test_tautology_free(self):
        assert replay_claim(
            K3,
            {"kind": "tautology_free", "letters": ["p", "q"], "depth": 2,
             "expected": True},
        )

    def test_logic_entails(self):
        assert replay_claim(
            L3,
            {"kind": "logic_entails", "depth": 2, "gamma": ["p", "~p"],
             "alpha": "q", "expected": False},
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            replay_claim(L3, {"kind": "zzz"})


class TestColumns:
    def test_order_and_names(self):
        specs = table_columns()
        assert [s.name for s in specs] == list(COLUMN_NAMES)
        assert [s.para_depth for s in specs] == [0, 1, 0, 1, 0, 1]


class TestCells:
    def test_explosive_base_exact(self):
        v = check_property(LogicSpec(L3, 0), PropertyId.EXPLOSIVE, SMALL)
        assert v.outcome is Outcome.HOLDS
        assert v.method is Method.EXACT

    def test_explosive_para_fails_with_witness(self):
        v = check_property(LogicSpec(L3, 1), PropertyId.EXPLOSIVE, SMALL)
        assert v.outcome is Outcome.FAILS
        assert replay_claims(L3, v.witness["claims"])

    def test_joint_consistency_para_exact_fails(self):
        for m in (L3, G3, K3):
            v = check_property(LogicSpec(m, 1), PropertyId.JOINT_CONSISTENCY, SMALL)
            assert v.outcome is Outcome.FAILS
            assert v.method is Method.EXACT

    def test_full_dt_holds_only_for_g3(self):
        outcomes = {
            spec.name: check_property(spec, PropertyId.FULL_DT, SMALL).outcome
            for spec in table_columns()
        }
        assert outcomes == {
            "L3": Outcome.FAILS,
            "P(L3)": Outcome.FAILS,
            "G3": Outcome.HOLDS,
            "P(G3)": Outcome.FAILS,
            "K3": Outcome.FAILS,
            "P(K3)": Outcome.FAILS,
        }

    def test_conjunctive_para_fails_bounded(self):
        v = check_property(LogicSpec(L3, 1), PropertyId.CONJUNCTIVE_PROPERTY, SMALL)
        assert v.outcome is Outcome.FAILS
        assert v.method is Method.BOUNDED
        assert v.witness["candidates_checked"] > 100

    def test_modus_ponens_para_witness(self):
        v = check_property(LogicSpec(K3, 1), PropertyId.MODUS_PONENS, SMALL)
        assert v.outcome is Outcome.FAILS
        assert v.method is Method.WITNESS

    def test_fails_verdicts_carry_replayable_witnesses(self):
        for spec in table_columns():
            for prop in TABLE_ROWS:
                v = check_property(spec, prop, SMALL)
                if v.outcome is Outcome.FAILS:
                    assert v.witness is not None
                    assert replay_claims(spec.matrix, v.witness["claims"])

    def test_determinism(self):
        a = check_property(LogicSpec(L3, 0), PropertyId.MONOTONICITY, SMALL)
        b = check_property(LogicSpec(L3, 0), PropertyId.MONOTONICITY, SMALL)
        assert a.to_json() == b.to_json()


# L3 with 1/2 designated too: {p, ~p} has a model, so joint consistency
# needs a drawn witness, and detachment fails at 1/2 -> 0.
L3_HALF = replace(L3, name="l3-half", designated=frozenset({Fraction(1), Fraction(1, 2)}))
# L3 with & read as |, so a conjunction no longer yields its conjuncts
L3_OR_AS_AND = replace(L3, name="l3-or-as-and", and_=L3.or_)


class TestSamplesRun:
    """`samples_run` counts the random draws a cell made before it stopped."""

    @pytest.mark.parametrize(
        "m, prop, outcome, method",
        [
            (L3_HALF, PropertyId.JOINT_CONSISTENCY, Outcome.HOLDS, Method.WITNESS),
            (L3_HALF, PropertyId.MODUS_PONENS, Outcome.FAILS, Method.SAMPLED),
            (L3_OR_AS_AND, PropertyId.CONJUNCTIVE_PROPERTY, Outcome.UNDECIDED, Method.SAMPLED),
        ],
        ids=["joint-witness", "sampled-fails", "conjunctive-undecided"],
    )
    def test_counts_the_draws_made(self, m, prop, outcome, method):
        spec = LogicSpec(m, 0)
        v = check_property(spec, prop, SMALL)
        assert (v.outcome, v.method) == (outcome, method)
        assert 0 < v.samples_run < SMALL.samples
        # the cell's stream does not depend on the budget, so a budget of
        # exactly that many draws decides the cell the same way, and one
        # draw fewer does not
        exact = check_property(spec, prop, replace(SMALL, samples=v.samples_run))
        assert exact.to_json() == v.to_json()
        if v.samples_run > 1:
            fewer = check_property(spec, prop, replace(SMALL, samples=v.samples_run - 1))
            assert fewer.outcome is not outcome
            assert fewer.samples_run == v.samples_run - 1


@pytest.fixture(scope="module")
def report():
    return run_table(SMALL)


class TestRunTable:
    def test_every_cell_decided(self, report):
        assert len(report.verdicts) == 96
        assert all(
            v.outcome in (Outcome.HOLDS, Outcome.FAILS)
            for v in report.verdicts.values()
        )

    def test_matches_expected_table_up_to_known_discrepancies(self, report):
        for prop in TABLE_ROWS:
            for i, col in enumerate(COLUMN_NAMES):
                computed = report.verdicts[(prop, col)].outcome is Outcome.HOLDS
                expected = PUBLISHED_TABLE[prop][i]
                if (prop, col) in KNOWN_DISCREPANCIES:
                    assert computed != expected, f"{prop.value}/{col}"
                else:
                    assert computed == expected, f"{prop.value}/{col}"

    def test_discrepancies_are_exactly_the_known_ones(self, report):
        cells = {
            (PropertyId(d["cell"].split("/")[0]), d["cell"].split("/")[1])
            for d in report.discrepancies
        }
        assert cells == set(KNOWN_DISCREPANCIES)
        assert all(d["known"] for d in report.discrepancies)
        assert report.unexpected_discrepancies() == []
        assert all(d["evidence"] is not None for d in report.discrepancies)

    def test_json_shape(self, report):
        doc = report.to_json()
        assert set(doc) == {"budget", "columns", "grid", "discrepancies"}
        assert len(doc["grid"]) == 96
        cell = doc["grid"]["explosive/L3"]
        assert cell["outcome"] == "HOLDS"
        assert cell["bounds"] == [3, 3, 5]

    def test_matches_golden_json(self, report):
        text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
        assert text == GOLDEN_SMALL.read_text(encoding="utf-8")

    def test_gate_replays_every_fails_witness(self, report, monkeypatch):
        # with witness replay forced to fail, check_property must refuse
        # every FAILS verdict, whichever checker decided it
        failing = [
            cell for cell, v in report.verdicts.items() if v.outcome is Outcome.FAILS
        ]
        for col in ("L3", "G3", "K3"):
            assert (PropertyId.PARACONSISTENT, col) in failing
        specs = dict(zip(COLUMN_NAMES, table_columns()))
        monkeypatch.setattr(audit, "replay_witness", lambda m, witness: False)
        for prop, col in failing:
            with pytest.raises(AssertionError, match="lacks a replayable witness"):
                check_property(specs[col], prop, SMALL)

    def test_text_grid(self, report):
        text = report.format_text()
        lines = text.splitlines()
        assert any("explosive" in line for line in lines)
        assert "✓" in text and "×" in text
        assert "Discrepancies:" in text


def _no_child_left() -> bool:
    """True when this process has no child, running or zombie."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _raising(exc):
    """A `check_property` that raises `exc` on every cell, so that each
    worker stops at its first cell, and the workers not read first must
    still be reaped."""

    def checking(spec, prop, budget):
        raise exc

    return checking


class TestWorkers:
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_grid_and_cleanup_on_any_worker_count(self, monkeypatch, cpus):
        monkeypatch.setattr(audit, "_cpu_count", lambda: cpus)
        report = run_table(SMALL)
        assert report.workers == cpus
        text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
        assert text == GOLDEN_SMALL.read_text(encoding="utf-8")
        assert _no_child_left()

    def test_no_fork_while_other_threads_run(self, monkeypatch):
        monkeypatch.setattr(audit, "_cpu_count", lambda: 2)
        stop = threading.Event()
        waiting = threading.Thread(target=stop.wait)
        waiting.start()
        try:
            assert run_table(SMALL).workers == 1
        finally:
            stop.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()

    def test_every_cell_timed(self, report):
        assert set(report.seconds) == set(report.verdicts)
        assert all(s > 0 for s in report.seconds.values())
        assert report.wall_s > 0
        # the per-cell times say how the run went, not what it found
        assert "seconds" not in json.dumps(report.to_json())

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_raising_cells_raise_their_exception(self, monkeypatch, cpus):
        monkeypatch.setattr(audit, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(audit, "check_property", _raising(ZeroDivisionError("cell broke")))
        with pytest.raises(ZeroDivisionError, match="cell broke"):
            run_table(SMALL)
        assert _no_child_left()

    def test_an_exception_that_cannot_be_pickled_keeps_its_name(self, monkeypatch):
        class Odd(Exception):  # local, so pickle cannot name it
            pass

        monkeypatch.setattr(audit, "_cpu_count", lambda: 2)
        monkeypatch.setattr(audit, "check_property", _raising(Odd("cell broke")))
        with pytest.raises(RuntimeError, match="^Odd: cell broke$"):
            run_table(SMALL)
        assert _no_child_left()

    def test_a_killed_worker_makes_the_grid_raise(self):
        # in a subprocess, so that a grid that hangs fails on the timeout
        script = """
import os, signal
from paramat import audit
check_property = audit.check_property
def killing(spec, prop, budget):
    if (prop, spec.name) == (audit.PropertyId.MONOTONICITY, "G3"):
        os.kill(os.getpid(), signal.SIGKILL)
    return check_property(spec, prop, budget)
audit.check_property = killing
audit._cpu_count = lambda: 2
try:
    audit.run_table(audit.AuditBudget(samples=20))
except RuntimeError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""
        src = Path(audit.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(rf"audit worker \d+ was killed by signal {signal.SIGKILL:d}\nno child left\n", proc.stdout)
        assert proc.stderr == ""


class TestWitnessSuites:
    @pytest.mark.parametrize("m", [L3, G3, K3], ids=lambda m: m.name)
    def test_all_pass(self, m):
        results = verify_witness_suite(LogicSpec(m))
        assert results
        failed = [r.description for r in results if not r.passed]
        assert failed == []

    def test_total_count(self):
        total = sum(
            len(verify_witness_suite(LogicSpec(m))) for m in (L3, G3, K3)
        )
        assert total >= 14

    def test_unknown_matrix(self):
        with pytest.raises(ValueError):
            verify_witness_suite(LogicSpec(builtin("cl2")))
