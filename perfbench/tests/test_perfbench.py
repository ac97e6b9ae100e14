"""Tests of the benchmark itself: generators, oracle, tracer and statistics.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import pytest  # noqa: E402

import check  # noqa: E402
import oracle  # noqa: E402
import paramat  # noqa: E402
import paramat.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import _encode, _run_query  # noqa: E402

PARAMAT_MATRICES = {
    "l3": paramat.builtin("l3"),
    "g3": paramat.builtin("g3"),
    "k3": paramat.builtin("k3"),
    "ln:4": paramat.lukasiewicz(4),
    "gn:4": paramat.goedel(4),
}

# a small fixed query set: explosion, countermodels, classes, subsets, depth 2
FIXED_QUERIES = [
    {"kind": "entails", "logic": "l3", "gamma": ["p | q", "~p"], "alpha": "q"},
    {"kind": "entails", "logic": "k3", "gamma": [], "alpha": "p -> p"},
    {"kind": "entails", "logic": "g3", "gamma": ["p", "~p"], "alpha": "q"},
    {"kind": "entails", "logic": "ln:4", "gamma": ["p -> q", "p"], "alpha": "q"},
    {"kind": "is_consistent", "logic": "l3", "gamma": ["p", "~p"]},
    {"kind": "is_consistent", "logic": "gn:4", "gamma": ["p -> q", "~q"]},
    {"kind": "classify", "logic": "g3", "gamma": [], "alpha": "p & ~p"},
    {"kind": "classify", "logic": "k3", "alpha": "p | ~p"},
    {"kind": "classify", "logic": "l3", "alpha": "p -> p"},
    {"kind": "classify", "logic": "ln:4", "alpha": "~(p -> p)"},
    {"kind": "para_entails", "logic": "l3", "gamma": ["p", "~p"], "alpha": "p | q"},
    {"kind": "para_entails", "logic": "l3", "gamma": ["p", "~p"], "alpha": "q"},
    {"kind": "para_entails", "logic": "k3", "gamma": ["p & q", "~p", "r"], "alpha": "q & r"},
    {"kind": "maximal_consistent_subsets", "logic": "l3", "gamma": ["p", "~p", "q", "~q | p"]},
    {"kind": "is_para_consistent", "logic": "g3", "gamma": ["p", "~p", "p & ~p"]},
    {"kind": "logic_entails_2", "logic": "l3", "gamma": ["p", "~p", "q"], "alpha": "q | r"},
    {"kind": "logic_entails_2", "logic": "g3", "gamma": ["p", "~p", "q"], "alpha": "r"},
]


def _answer(q: dict):
    return _encode(q["kind"], _run_query(paramat, PARAMAT_MATRICES[q["logic"]], q))


# ---------------------------------------------------------------------------
# Generators


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert workloads.round_inputs(workload, 7, 1) == workloads.round_inputs(workload, 7, 1)
    assert workloads.round_inputs(workload, 7, 1) != workloads.round_inputs(workload, 8, 1)


def test_oneshot_queries_share_no_formula():
    texts = []
    for k in range(2):
        for q in workloads.round_inputs("oneshot_queries", 3, k):
            texts += [*q.get("gamma", ()), *([q["alpha"]] if "alpha" in q else ())]
    assert len(texts) == len(set(texts))


def test_subset_conclusions_are_entailed_only_through_the_last_premise():
    for q in workloads.round_inputs("subset_heavy", 4, 0):
        if "alpha" not in q or q["kind"] != "para_entails":
            continue
        m = oracle.MATRICES[q["logic"]]
        gamma = [oracle.parse(t) for t in q["gamma"]]
        alpha = oracle.parse(q["alpha"])
        if oracle.para_entails(m, gamma, alpha):
            assert not oracle.para_entails(m, gamma[:-1], alpha)


def test_generated_text_is_in_paramat_canonical_form():
    for workload in ("oneshot_queries", "subset_heavy"):
        for q in workloads.round_inputs(workload, 0, 0)[:40]:
            for text in [*q.get("gamma", ()), *([q["alpha"]] if "alpha" in q else ())]:
                assert paramat.render(paramat.parse(text)) == text
            if "gamma" in q and workload == "subset_heavy":
                assert [str(f) for f in paramat.FormulaSet.from_text(", ".join(q["gamma"]))] == q["gamma"]


# ---------------------------------------------------------------------------
# Oracle


@pytest.mark.parametrize("selector", sorted(PARAMAT_MATRICES))
def test_oracle_matrices_match_paramat_tables(selector):
    ref, m = oracle.MATRICES[selector], PARAMAT_MATRICES[selector]
    assert ref.values == m.values
    assert {ref.values[d] for d in ref.designated} == set(m.designated)
    assert tuple(ref.values[ref.neg[i]] for i in range(ref.n)) == tuple(m.neg[v] for v in m.values)
    for op, table in (("|", m.or_), ("&", m.and_), ("->", m.imp)):
        for a, x in enumerate(ref.values):
            for b, y in enumerate(ref.values):
                assert ref.values[ref.tables[op][a][b]] == table[(x, y)]


@pytest.mark.parametrize("q", FIXED_QUERIES, ids=lambda q: f"{q['kind']}-{q['logic']}")
def test_oracle_agrees_with_paramat_on_fixed_queries(q):
    assert check._query_ok(q, _answer(q))


def test_oracle_agrees_with_paramat_on_generated_queries():
    queries = workloads.round_inputs("oneshot_queries", 11, 0)[::10]
    queries += [q for q in workloads.round_inputs("subset_heavy", 11, 0) if len(q["gamma"]) <= 12]
    for q in queries:
        assert check._query_ok(q, _answer(q)), q


def test_oracle_rejects_wrong_answers():
    entailed = FIXED_QUERIES[0]
    assert not check._query_ok(entailed, {"holds": False, "countermodel": {"p": "0", "q": "0"}})
    refuted = FIXED_QUERIES[1]
    assert not check._query_ok(refuted, {"holds": False, "countermodel": {"p": "1"}})
    para = FIXED_QUERIES[10]
    assert not check._query_ok(para, {"holds": True, "witness": ["p", "~p"]})
    assert not check._query_ok(FIXED_QUERIES[13], [["p", "q"]])


def test_oracle_countermodel_position_matches_paramat_order():
    m, ref = PARAMAT_MATRICES["l3"], oracle.MATRICES["l3"]
    gamma, alpha = ["p | q", "r"], "p & r"
    got = paramat.entails(m, paramat.FormulaSet.from_text(", ".join(gamma)), paramat.parse(alpha))
    holds, position = oracle.entails(ref, [oracle.parse(t) for t in gamma], oracle.parse(alpha))
    assert not holds and not got.holds
    assert oracle.Domain(ref, ["p", "q", "r"]).valuation(position) == got.countermodel


def _brute_depth2(m, gamma, alpha) -> bool:
    """Depth-2 entailment straight from its definition, over every subset pair."""
    fresh = oracle.fresh_letter(oracle.letters_of([*gamma, alpha]))
    subsets = lambda xs: [list(c) for k in range(len(xs) + 1) for c in combinations(xs, k)]

    def depth1(s, target):
        return any(oracle.is_consistent(m, t) and oracle.entails(m, t, target)[0] for t in subsets(s))

    return any(not depth1(s, fresh) and depth1(s, alpha) for s in subsets(gamma))


@pytest.mark.parametrize("logic", ["l3", "g3", "k3"])
def test_oracle_depth2_matches_brute_force(logic):
    m = oracle.MATRICES[logic]
    for q in workloads.round_inputs("subset_heavy", 2, 0)[:6]:
        gamma = [oracle.parse(t) for t in q["gamma"][:5]]
        alpha = oracle.parse(q.get("alpha", "p | q"))
        assert oracle.logic_entails(m, gamma, alpha, 2) == _brute_depth2(m, gamma, alpha)


def test_expected_grid_is_the_published_table_with_four_cells_flipped():
    from paramat.audit import KNOWN_DISCREPANCIES, PUBLISHED_TABLE, COLUMN_NAMES

    grid = oracle.expected_grid()
    assert len(grid) == 96 and list(grid.values()).count("FAILS") == 42
    for prop, row in PUBLISHED_TABLE.items():
        for col, published in zip(COLUMN_NAMES, row):
            flipped = (prop, col) in KNOWN_DISCREPANCIES
            assert (grid[f"{prop.value}/{col}"] == "HOLDS") == (published != flipped)


def test_oracle_replays_stored_witness_claims():
    from paramat.audit import LogicSpec, verify_witness_suite, _SUITES

    for column, suite in _SUITES.items():
        for _, claims in suite():
            for claim in claims:
                assert oracle.replay_claim(oracle.column_matrix(column), claim), claim
    assert all(r.passed for r in verify_witness_suite(LogicSpec(PARAMAT_MATRICES["l3"])))


def test_oracle_evaluation_matches_paramat_evaluate():
    m, ref = PARAMAT_MATRICES["gn:4"], oracle.MATRICES["gn:4"]
    text = "~(p -> q) | q & ~~p"
    dom = oracle.Domain(ref, ["p", "q"])
    vec = dom.vector(oracle.parse(text))
    for position in range(dom.size):
        valuation = dom.valuation(position)
        value = paramat.evaluate(m, valuation, paramat.parse(text))
        assert vec[ref.values.index(value)] >> position & 1


# ---------------------------------------------------------------------------
# Tracer


def _bindings() -> dict:
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "paramat" or name.startswith("paramat."))
    }


def test_tracer_restores_every_binding():
    before = _bindings()
    with tracer.Tracer() as t:
        assert paramat.entails is not before["paramat"]["entails"]
        assert paramat.para.evaluate is not before["paramat.para"]["evaluate"]
        # the recursion inside semantics stays untraced
        assert paramat.semantics.evaluate is before["paramat.semantics"]["evaluate"]
        for q in FIXED_QUERIES:
            _answer(q)
    after = _bindings()
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        assert attrs.keys() == after[name].keys(), name
        for key, value in attrs.items():
            assert after[name][key] is value, f"{name}.{key}"
    assert t.stats["semantics.entails"][0] == 4
    assert t.stats["para.logic_entails"][0] == 2


def test_tracer_restores_bindings_after_an_error():
    before = _bindings()
    with pytest.raises(paramat.ParseError):
        with tracer.Tracer():
            paramat.parse("p &")
    assert all(after is before[n][k] for n, attrs in _bindings().items() for k, after in attrs.items())


def test_tracer_self_time_excludes_children_and_counts_work():
    with tracer.Tracer() as t:
        for q in FIXED_QUERIES:
            _answer(q)
    calls, inclusive, own = t.stats["para.is_para_consistent"]
    assert calls == 1 and 0 <= own < inclusive
    metrics = t.metrics(rounds=1)
    assert 0 < metrics["semantics.entails.visited_share"][0] < 1
    # 3^|G| per depth-2 call: two calls with |G| = 3
    assert metrics["para.submasks_offered"][0] == 2 * 3**3


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tracer.Tracer() as t:
        pass
    traced = set(t.metrics(rounds=1)) | {f"layer.{layer}.share" for layer in tracer.LAYERS}
    traced |= {"trace.overhead_s", "trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"
    }
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_worker_and_tracer_preload_nothing_paramat_imports():
    """Set-up is timed from the worker's first line; whatever the worker
    imports before then would be missing from `setup_s`."""
    code = (
        "import sys; before = set(sys.modules); import worker, tracer; "
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "perfbench", capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout.replace("'", '"')) == ["tracer", "worker"]


# ---------------------------------------------------------------------------
# Statistics


def test_wall_s_sums_each_operations_best_time():
    ops = [[3.0, 1.0] + [0.5] * 10, [2.0, 4.0] + [0.25] * 10, [5.0, 2.0] + [1.0] * 10]
    rounds = [{"wall_s": sum(times), "op_s": times} for times in ops]
    assert run._best_times(rounds) == [2.0, 1.0] + [0.25] * 10
    assert run._wall_s(rounds) == 5.5


def test_audit_wall_s_is_the_grid_and_passes_are_its_operations():
    passes = [{"op_s": [0.2] * 11, "replays": [True] * 11}, {"op_s": [0.1] * 11, "replays": [True] * 11}]
    rounds = [{"wall_s": 30.0, "passes": passes, "results": {}}]
    assert run._wall_s(rounds) == 30.0
    assert run._best_times(rounds) == [0.1] * 11
