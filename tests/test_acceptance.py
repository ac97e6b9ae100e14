"""Acceptance gate: nine criteria, each printing one pass/fail line.

Each test is self-contained, uses its own oracle or frozen expected values,
and asserts the stated runtime bound where one applies.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from paramat.audit import (
    AuditBudget,
    Method,
    Outcome,
    PropertyId,
    check_property,
    replay_claims,
    run_table,
    table_columns,
    verify_witness_suite,
)
from paramat.formula import (
    And,
    FormulaSet,
    Imp,
    Letter,
    Neg,
    Or,
    draw_formula,
    enumerate_formulas,
    parse,
)
from paramat.matrix import builtin, goedel, lukasiewicz
from paramat.para import LogicSpec, logic_entails, para_entails
from paramat.semantics import entails, evaluate, is_consistent, tautology_free_check

F0, FH, F1 = Fraction(0), Fraction(1, 2), Fraction(1)
L3, G3, K3, CL2 = (builtin(n) for n in ("l3", "g3", "k3", "cl2"))
P, Q = Letter("p"), Letter("q")


def _report(n: int, passed: bool, text: str) -> None:
    print(f"criterion {n}: {'PASS' if passed else 'FAIL'} - {text}")


# --------------------------------------------------------------------------
# 1. Truth-table identity (exact rational equality, < 1 s)

# Independently transcribed three-valued tables; or/and are max/min throughout.
EXPECTED_NEG = {
    "l3": {F1: F0, FH: FH, F0: F1},
    "g3": {F1: F0, FH: F0, F0: F1},
    "k3": {F1: F0, FH: FH, F0: F1},
}
EXPECTED_IMP = {
    "l3": {(F1, F1): F1, (F1, FH): FH, (F1, F0): F0,
           (FH, F1): F1, (FH, FH): F1, (FH, F0): FH,
           (F0, F1): F1, (F0, FH): F1, (F0, F0): F1},
    "g3": {(F1, F1): F1, (F1, FH): FH, (F1, F0): F0,
           (FH, F1): F1, (FH, FH): F1, (FH, F0): F0,
           (F0, F1): F1, (F0, FH): F1, (F0, F0): F1},
    "k3": {(F1, F1): F1, (F1, FH): FH, (F1, F0): F0,
           (FH, F1): F1, (FH, FH): FH, (FH, F0): FH,
           (F0, F1): F1, (F0, FH): F1, (F0, F0): F1},
}


def test_criterion_1_truth_table_identity():
    start = time.perf_counter()
    cells = 0
    for name in ("l3", "g3", "k3"):
        m = builtin(name)
        for x, expected in EXPECTED_NEG[name].items():
            assert evaluate(m, {"p": x}, Neg(P)) == expected
            cells += 1
        for (x, y), expected in EXPECTED_IMP[name].items():
            v = {"p": x, "q": y}
            assert evaluate(m, v, Imp(P, Q)) == expected
            assert evaluate(m, v, Or(P, Q)) == max(x, y)
            assert evaluate(m, v, And(P, Q)) == min(x, y)
            cells += 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, True, f"{cells} truth-table cells exact in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. Witness suite (>= 14 of the grid's stored witnesses replay, < 5 s)


def test_criterion_2_witness_suite():
    start = time.perf_counter()
    total, failed = 0, []
    for m in (L3, G3, K3):
        for result in verify_witness_suite(LogicSpec(m)):
            total += 1
            if not result.passed:
                failed.append(f"{m.name}: {result.description}")
    elapsed = time.perf_counter() - start
    assert total >= 14
    assert failed == []
    assert elapsed < 5.0
    _report(2, True, f"{total}/{total} stored witnesses replay in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 3. Summary-table reproduction at the default budget (< 2 min)
#
# The report must also match, byte for byte, the stored output of
# `paramat audit --format json --seed 0`; that file changes only together
# with a CHANGES.md entry explaining the change in output.

GOLDEN_AUDIT = Path(__file__).parent / "data" / "audit_seed0.json"


def test_criterion_3_summary_table():
    start = time.perf_counter()
    report = run_table(AuditBudget())
    elapsed = time.perf_counter() - start
    assert len(report.verdicts) == 96
    flagged = {d["cell"] for d in report.discrepancies}
    required = {
        "joint_consistency/P(L3)",
        "joint_consistency/P(G3)",
        "joint_consistency/P(K3)",
        "modified_full_dt/P(L3)",
    }
    assert required <= flagged
    assert report.unexpected_discrepancies() == []
    # every flagged cell carries evidence that replays
    for d in report.discrepancies:
        prop, col = d["cell"].split("/")
        m = builtin({"L3": "l3", "G3": "g3", "K3": "k3"}[col.strip("P()")])
        assert d["evidence"] is not None
        assert replay_claims(m, d["evidence"]["claims"])
    assert elapsed < 120.0
    # serialized exactly as the CLI prints it
    text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    assert text == GOLDEN_AUDIT.read_text(encoding="utf-8")
    _report(
        3,
        True,
        f"96 cells reproduced, {len(flagged)} flagged (all known) in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 4. Oracle equivalence for the consistent-subset consequence (< 2 min)
#
# All premise sets with |G| <= 4 from the full depth-<=1 pool over {p, q}
# are checked exhaustively; the depth-<=2 pool (786 formulas) is covered by
# seeded random draws.  Checking all 4-subsets of the depth-<=2 pool directly
# would take ~1.6e10 premise sets, far beyond the stated runtime.


def _oracle_para(m, gamma, alpha):
    for size in range(len(gamma) + 1):
        for combo in combinations(list(gamma), size):
            subset = FormulaSet(combo)
            if is_consistent(m, subset) and entails(m, subset, alpha).holds:
                return True, subset
    return False, None


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    alphas = [Q, parse("p | q"), Neg(P)]
    depth1_pool = list(enumerate_formulas(["p", "q"], 1))
    assert len(depth1_pool) == 16
    checked = 0
    for m in (L3, K3):
        for size in range(5):
            for combo in combinations(depth1_pool, size):
                gamma = FormulaSet(combo)
                for alpha in alphas:
                    got = para_entails(m, gamma, alpha)
                    want_holds, want_witness = _oracle_para(m, gamma, alpha)
                    assert got.holds == want_holds, (m.name, str(gamma), str(alpha))
                    assert got.witness == want_witness
                    checked += 1
        rng = random.Random(4)
        depth2_pool = list(enumerate_formulas(["p", "q"], 2))
        assert len(depth2_pool) == 786
        for _ in range(150):
            gamma = FormulaSet(
                rng.choice(depth2_pool) for _ in range(rng.randint(0, 4))
            )
            for alpha in alphas:
                got = para_entails(m, gamma, alpha)
                want_holds, want_witness = _oracle_para(m, gamma, alpha)
                assert got.holds == want_holds
                assert got.witness == want_witness
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, True, f"{checked} queries, zero oracle disagreements in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5. Transform idempotence: depth-2 and depth-1 agree on 500 queries per logic


def test_criterion_5_transform_idempotence():
    disagreements = 0
    for m in (L3, G3, K3):
        rng = random.Random(f"idem|{m.name}")
        one, two = LogicSpec(m, 1), LogicSpec(m, 2)
        for _ in range(500):
            gamma = FormulaSet(
                draw_formula(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 4))
            )
            alpha = draw_formula(rng, ["p", "q"], 2)
            if logic_entails(one, gamma, alpha) != logic_entails(two, gamma, alpha):
                disagreements += 1
    assert disagreements == 0
    _report(5, True, "depth-1/depth-2 agree on 500 queries per logic")


# --------------------------------------------------------------------------
# 6. Weak transitivity: 500 singleton chains per column logic


def test_criterion_6_weak_transitivity():
    violations = 0
    antecedents = 0
    for spec in table_columns():
        if spec.para_depth == 0:
            rel = lambda g, a: entails(spec.matrix, g, a).holds
        else:
            rel = lambda g, a: para_entails(spec.matrix, g, a).holds
        rng = random.Random(f"wt|{spec.name}")
        for _ in range(500):
            alpha = draw_formula(rng, ["p", "q"], 2)
            beta = alpha if rng.random() < 0.4 else (
                Or(alpha, draw_formula(rng, ["p", "q"], 1))
                if rng.random() < 0.5
                else draw_formula(rng, ["p", "q"], 2)
            )
            gamma = beta if rng.random() < 0.4 else (
                Or(beta, draw_formula(rng, ["p", "q"], 1))
                if rng.random() < 0.5
                else draw_formula(rng, ["p", "q"], 2)
            )
            if rel(FormulaSet([alpha]), beta) and rel(FormulaSet([beta]), gamma):
                antecedents += 1
                if not rel(FormulaSet([alpha]), gamma):
                    violations += 1
    assert violations == 0
    assert antecedents > 0
    _report(
        6,
        True,
        f"zero violations on 500 chains per logic ({antecedents} with antecedent)",
    )


# --------------------------------------------------------------------------
# 7. K3 tautology-freeness, exhaustive to depth 3 (< 30 s)


def test_criterion_7_k3_tautology_free():
    start = time.perf_counter()
    assert tautology_free_check(K3, ["p", "q"], 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        7,
        True,
        f"all depth<=3 formulas over {{p, q}} stay at 1/2 in {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 8. Classical sanity: CL2 vs an independent boolean truth-table oracle
#
# Every depth-<=3 formula over {p, q} is generated level by level; each
# formula's truth vector over the 4 classical valuations is computed twice,
# once from the CL2 matrix tables and once with native boolean operators,
# encoded as 4-bit masks.


def _cl2_mask_ops():
    def lift_unary(table):
        out = []
        for mask in range(16):
            result = 0
            for i in range(4):
                x = F1 if mask & (1 << i) else F0
                if table[x] == F1:
                    result |= 1 << i
            out.append(result)
        return out

    def lift_binary(table):
        out = {}
        for a in range(16):
            for b in range(16):
                result = 0
                for i in range(4):
                    x = F1 if a & (1 << i) else F0
                    y = F1 if b & (1 << i) else F0
                    if table[(x, y)] == F1:
                        result |= 1 << i
                out[(a, b)] = result
        return out

    return lift_unary(CL2.neg), [lift_binary(t) for t in (CL2.or_, CL2.and_, CL2.imp)]


def _bool_mask_ops():
    neg = [~a & 15 for a in range(16)]
    pairs = [(a, b) for a in range(16) for b in range(16)]
    or_ = {(a, b): a | b for a, b in pairs}
    and_ = {(a, b): a & b for a, b in pairs}
    imp = {(a, b): (~a | b) & 15 for a, b in pairs}
    return neg, [or_, and_, imp]


def test_criterion_8_classical_sanity():
    start = time.perf_counter()
    m_neg, m_bins = _cl2_mask_ops()
    b_neg, b_bins = _bool_mask_ops()
    # valuation bit i encodes (p, q) = (i & 1, i >> 1)
    pool_m = [0b1010, 0b1100]  # p, q
    pool_b = list(pool_m)
    checked = len(pool_m)
    prev_start = 0
    for _ in range(3):
        level_m, level_b = [], []
        for mv, bv in zip(pool_m[prev_start:], pool_b[prev_start:]):
            nm, nb = m_neg[mv], b_neg[bv]
            assert nm == nb
            level_m.append(nm)
            level_b.append(nb)
        for m_table, b_table in zip(m_bins, b_bins):
            for i, (ma, ba) in enumerate(zip(pool_m, pool_b)):
                for j, (mb, bb) in enumerate(zip(pool_m, pool_b)):
                    if i >= prev_start or j >= prev_start:
                        om, ob = m_table[(ma, mb)], b_table[(ba, bb)]
                        assert om == ob
                        level_m.append(om)
                        level_b.append(ob)
        prev_start = len(pool_m)
        pool_m.extend(level_m)
        pool_b.extend(level_b)
        checked += len(level_m)
    # the streams mirror enumerate_formulas, so the count must match
    assert checked == len(list(enumerate_formulas(["p", "q"], 3)))
    # spot-check entails() itself against boolean model counting
    for f in enumerate_formulas(["p", "q"], 2):
        vecs = [
            evaluate(CL2, {"p": F1 if i & 1 else F0, "q": F1 if i & 2 else F0}, f)
            for i in range(4)
        ]
        assert entails(CL2, FormulaSet(), f).holds == all(v == F1 for v in vecs)
    # the two-valued family members coincide with the classical matrix
    assert lukasiewicz(2).same_tables(CL2)
    assert goedel(2).same_tables(CL2)
    elapsed = time.perf_counter() - start
    _report(8, True, f"{checked} formulas agree with the boolean oracle in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 9. The lemmas that decide 36 grid cells exactly, cross-checked by sampling
#
# The audit decides these rows by arguments that hold in every matrix (or,
# for modus ponens and the conjunctive property of the base logics and of
# their transforms, on a two-letter check of the tables).  A wrong argument
# would show up as a violation here, on three matrices beyond the grid's own.

LEMMA_MATRICES = (L3, G3, K3, CL2, lukasiewicz(4), goedel(5))
# the rows decided by a lemma, per transform depth of the column
LEMMA_ROWS = {
    0: (
        PropertyId.INCLUSION,
        PropertyId.MONOTONICITY,
        PropertyId.IDEMPOTENCY,
        PropertyId.TRANSITIVITY,
        PropertyId.WEAK_TRANSITIVITY,
        PropertyId.MODUS_PONENS,
        PropertyId.CONJUNCTIVE_PROPERTY,
        PropertyId.P_IDEMPOTENT,
    ),
    1: (PropertyId.MONOTONICITY, PropertyId.WEAK_TRANSITIVITY, PropertyId.P_IDEMPOTENT),
}


def _lemma_instances(rng, m, para_depth: int) -> dict:
    """One drawn instance of each lemma of the column: its name -> None when
    the antecedent does not hold, else whether the conclusion does."""
    if para_depth == 0:
        rel = lambda g, a: entails(m, g, a).holds
    else:
        rel = lambda g, a: para_entails(m, g, a).holds
    draw = lambda depth=2: draw_formula(rng, ["p", "q"], depth)
    near = lambda f: rng.choice([f, Or(f, draw(1)), draw()])  # often a consequence of f
    gamma = FormulaSet(draw() for _ in range(rng.randint(1, 3)))
    member = rng.choice(list(gamma))
    out = {}

    target = near(member)
    if rel(gamma, target):
        out["monotonicity"] = rel(gamma.union([draw(), draw()]), target)
    else:
        out["monotonicity"] = None

    a = draw()
    b = near(a)
    c = near(b)
    chained = rel(FormulaSet([a]), b) and rel(FormulaSet([b]), c)
    out["weak transitivity"] = rel(FormulaSet([a]), c) if chained else None

    if para_depth:
        # the refutation of the conjunctive property: {z} yields q once it
        # yields p | q and ~p | q, whatever z is
        single = FormulaSet([draw_formula(rng, ["p", "q", "r"], 2)])
        both = rel(single, Or(P, Q)) and rel(single, Or(Neg(P), Q))
        out["P conjunction"] = rel(single, Q) if both else None
        return out

    out["inclusion"] = rel(gamma, member)

    delta = [f for f in (near(member), near(rng.choice(list(gamma)))) if rel(gamma, f)]
    target = near(rng.choice(delta)) if delta else None
    cut = bool(delta) and rel(FormulaSet(delta), target)
    out["cut"] = rel(gamma, target) if cut else None

    a, b = draw(1), draw(1)
    premises = gamma.union([a, Imp(a, b)]) if rng.random() < 0.7 else gamma
    detaches = rel(premises, a) and rel(premises, Imp(a, b))
    out["modus ponens"] = rel(premises, b) if detaches else None

    a, b = draw(), draw()
    conj = FormulaSet([And(a, b)])
    out["conjunction"] = rel(FormulaSet([a, b]), And(a, b)) and rel(conj, a) and rel(conj, b)

    # the transforms of every column: depth 2 answers as depth 1
    alpha = draw()
    one = logic_entails(LogicSpec(m, 1), gamma, alpha)
    out["P(P(L)) = P(L)"] = one == logic_entails(LogicSpec(m, 2), gamma, alpha)
    return out


def test_criterion_9_normality_sampling():
    antecedents: dict[str, int] = {}
    violations = []
    for m in LEMMA_MATRICES:
        for para_depth, rows in LEMMA_ROWS.items():
            spec = LogicSpec(m, para_depth)
            expected = {prop: Outcome.HOLDS for prop in rows}
            if para_depth:
                expected[PropertyId.CONJUNCTIVE_PROPERTY] = Outcome.FAILS
            for prop, outcome in expected.items():
                verdict = check_property(spec, prop)
                assert (verdict.outcome, verdict.method) == (outcome, Method.EXACT), (
                    spec.name, prop.value,
                )
                assert replay_claims(m, verdict.witness["claims"])
            rng = random.Random(f"lemma|{spec.name}")
            for _ in range(200):
                for lemma, held in _lemma_instances(rng, m, para_depth).items():
                    if held is None:
                        continue
                    key = f"{lemma}/{para_depth}"
                    antecedents[key] = antecedents.get(key, 0) + 1
                    if not held:
                        violations.append((spec.name, lemma))
    assert violations == []
    assert len(antecedents) == 10 and min(antecedents.values()) > 0, antecedents
    _report(
        9,
        True,
        f"zero violations of 10 lemmas on 200 draws per column of {len(LEMMA_MATRICES)} "
        f"matrices (fewest antecedents: {min(antecedents.values())})",
    )
