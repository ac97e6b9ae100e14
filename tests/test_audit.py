"""Auditor tests: claim replay, per-cell verdicts, and the full results grid."""

import json
import re
from dataclasses import asdict, replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from paramat import audit
from paramat.audit import (
    COLUMN_NAMES,
    KNOWN_DISCREPANCIES,
    PUBLISHED_TABLE,
    TABLE_ROWS,
    AuditBudget,
    Decision,
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
from paramat.formula import FormulaSet, Imp, enumerate_formulas, parse
from paramat.matrix import builtin, format_value, goedel, lukasiewicz
from paramat.para import LogicSpec, consistent_subsets, logic_entails, para_entails
from paramat.semantics import (
    Classification, classify, entails, evaluate, tautology_free_check,
)

L3, G3, K3 = (builtin(n) for n in ("l3", "g3", "k3"))

# L3 with 1/2 designated too: {p, ~p} has a model, so joint consistency
# needs a witness other than p, and detachment fails at 1/2 -> 0.
L3_HALF = replace(L3, name="l3-half", designated=frozenset({Fraction(1), Fraction(1, 2)}))
# L3 with & read as |, so a conjunction no longer yields its conjuncts
L3_OR_AS_AND = replace(L3, name="l3-or-as-and", and_=L3.or_)
# classical logic with negation as identity: {x, ~x} is {x}
CL2 = builtin("cl2")
CL2_FLAT = replace(CL2, name="cl2-flat", neg={v: v for v in CL2.values})

# The output of `paramat audit --format json --seed 0`, the JSON of
# run_table(); it changes only together with a CHANGES.md entry explaining
# the change in output.
GOLDEN_AUDIT = Path(__file__).parent / "data" / "audit_seed0.json"


class TestBudget:
    def test_defaults(self):
        # the seed is the only setting, and the report only records it
        assert asdict(AuditBudget()) == {"seed": 0}


# (matrix, gamma, alpha, expected) entailment facts, the deduction-theorem
# instances among them
ENTAILS_CASES = [
    (L3, ["p | q", "~p"], "q", True),
    (L3, [], "q", False),
    (L3, ["q"], "p -> p -> p & q", True),
    (L3, [], "p -> p -> p", True),
    (L3, [], "~(p -> p) -> ~(p -> p) -> ~(p -> p)", True),
    (G3, ["q"], "p -> p & q", True),
    (G3, [], "p -> p", True),
    (G3, ["p"], "p", True),
    (G3, [], "p & ~p -> p & ~p", True),
]

PARA_ENTAILS_CASES = [
    (L3, ["p", "~p"], "q", False),
    (K3, ["p", "~p"], "p | ~p", True),
    # an inconsistent singleton yields only the tautologies
    (G3, ["p & ~p"], "p & ~p", False),
    (K3, ["p & ~p"], "p & ~p", False),
    (G3, [], "p & ~p -> p & ~p", True),
]

# claim kinds that only the hand-written witness suites emitted; the facts
# they replayed are checked below through the public functions
REMOVED_KINDS = ("logic_entails", "classify", "consistent_subsets", "eval", "tautology_free")


class TestReplay:
    def test_entails(self):
        for m, gamma, alpha, expected in ENTAILS_CASES:
            claim = {"kind": "entails", "gamma": gamma, "alpha": alpha, "expected": expected}
            assert replay_claim(m, claim), claim
            assert not replay_claim(m, {**claim, "expected": not expected}), claim

    def test_para_entails(self):
        for m, gamma, alpha, expected in PARA_ENTAILS_CASES:
            claim = {"kind": "para_entails", "gamma": gamma, "alpha": alpha, "expected": expected}
            assert replay_claim(m, claim), claim
            assert not replay_claim(m, {**claim, "expected": not expected}), claim

    def test_consistency_kinds(self):
        assert replay_claim(
            L3, {"kind": "consistent", "gamma": ["p", "~p"], "expected": False}
        )
        assert replay_claim(
            L3, {"kind": "consistent", "gamma": ["p | q", "~p"], "expected": True}
        )
        assert replay_claim(
            L3, {"kind": "para_consistent", "gamma": ["p", "~p"], "expected": True}
        )

    def test_classify(self):
        assert classify(G3, parse("p & ~p")) is Classification.CONTRADICTION
        assert classify(L3, parse("~(p -> p)")) is Classification.CONTRADICTION

    def test_consistent_subsets(self):
        got = [[f.text for f in s] for s in consistent_subsets(L3, FormulaSet.from_text("p, ~p"))]
        assert got == [[], ["p"], ["~p"]]
        got = [[f.text for f in s] for s in consistent_subsets(K3, FormulaSet.from_text("p & ~p"))]
        assert got == [[]]

    def test_eval(self):
        half = Fraction(1, 2)
        assert format_value(evaluate(K3, {"p": half}, parse("p -> p"))) == "1/2"
        assert format_value(evaluate(G3, {"p": half}, parse("~p"))) == "0"

    def test_star_property(self):
        assert replay_claim(L3, {"kind": "star_property", "expected": True})

    def test_tautology_free(self):
        assert tautology_free_check(K3, ["p", "q"], 2)
        assert not tautology_free_check(L3, ["p", "q"], 2)

    def test_logic_entails(self):
        gamma = FormulaSet.from_text("p, ~p")
        assert not logic_entails(LogicSpec(L3, 2), gamma, parse("q"))
        assert logic_entails(LogicSpec(L3, 0), gamma, parse("q"))

    def test_unknown_kind(self):
        for kind in ("zzz", *REMOVED_KINDS):
            with pytest.raises(ValueError, match="unknown claim kind"):
                replay_claim(L3, {"kind": kind, "gamma": ["p"], "alpha": "p", "expected": True})

    @pytest.mark.parametrize(
        "claim, field",
        [
            ({"kind": "entails", "alpha": "p", "expected": True}, "gamma"),
            ({"kind": "para_entails", "gamma": ["p"], "expected": True}, "alpha"),
            ({"kind": "consistent", "gamma": ["p"]}, "expected"),
            ({"kind": "entails", "gamma": "p, q", "alpha": "p", "expected": True}, "gamma"),
            ({"kind": "star_property", "expected": "yes"}, "expected"),
        ],
        ids=["no-gamma", "no-alpha", "no-expected", "gamma-string", "expected-string"],
    )
    def test_malformed_claim_names_its_field(self, claim, field):
        with pytest.raises(ValueError, match=f"field '{field}'"):
            replay_claim(L3, claim)


class TestColumns:
    def test_order_and_names(self):
        specs = table_columns()
        assert [s.name for s in specs] == list(COLUMN_NAMES)
        assert [s.para_depth for s in specs] == [0, 1, 0, 1, 0, 1]


class TestCells:
    def test_explosive_base_exact(self):
        v = check_property(LogicSpec(L3, 0), PropertyId.EXPLOSIVE)
        assert v.outcome is Outcome.HOLDS
        assert v.method is Method.EXACT

    def test_explosive_para_fails_with_witness(self):
        v = check_property(LogicSpec(L3, 1), PropertyId.EXPLOSIVE)
        assert v.outcome is Outcome.FAILS
        assert replay_claims(L3, v.witness["claims"])

    def test_joint_consistency_para_exact_fails(self):
        for m in (L3, G3, K3):
            v = check_property(LogicSpec(m, 1), PropertyId.JOINT_CONSISTENCY)
            assert v.outcome is Outcome.FAILS
            assert v.method is Method.EXACT

    def test_full_dt_holds_only_for_g3(self):
        outcomes = {
            spec.name: check_property(spec, PropertyId.FULL_DT).outcome
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

    def test_conjunctive_para_fails_exactly(self):
        v = check_property(LogicSpec(L3, 1), PropertyId.CONJUNCTIVE_PROPERTY)
        assert (v.outcome, v.method) == (Outcome.FAILS, Method.EXACT)
        kinds = [c["kind"] for c in v.witness["claims"]]
        assert kinds == ["para_entails"] * 3 + ["entails"] * 2
        assert replay_claims(L3, v.witness["claims"])

    def test_conjunctive_para_undecided_without_its_premises(self):
        # with 1/2 designated, p | q and ~p | q do not yield q (p = 1/2,
        # q = 0), so a z yielding them need not yield q: no exact argument
        v = check_property(LogicSpec(L3_HALF, 1), PropertyId.CONJUNCTIVE_PROPERTY)
        assert (v.outcome, v.method, v.witness) == (Outcome.UNDECIDED, Method.BOUNDED, None)

    def test_modus_ponens_para_witness(self):
        # the second stored witness needs no &, so it still refutes where & is |
        for m, gamma in ((K3, "p, ~p & (p -> q)"), (L3_OR_AS_AND, "p, ~p")):
            v = check_property(LogicSpec(m, 1), PropertyId.MODUS_PONENS)
            assert (v.outcome, v.method) == (Outcome.FAILS, Method.WITNESS)
            assert v.witness["description"] == f"{{{gamma}}} yields p and p -> q but not q"

    def test_fails_verdicts_carry_replayable_witnesses(self):
        for spec in table_columns():
            for prop in TABLE_ROWS:
                v = check_property(spec, prop)
                if v.outcome is Outcome.FAILS:
                    assert v.witness is not None
                    assert replay_claims(spec.matrix, v.witness["claims"])

    def test_determinism(self):
        cells = [
            (lukasiewicz(5), PropertyId.MODIFIED_WEAK_DT_FWD),
            (L3_HALF, PropertyId.JOINT_CONSISTENCY),
        ]
        for m, prop in cells:
            a = check_property(LogicSpec(m, 0), prop)
            b = check_property(LogicSpec(m, 0), prop)
            assert a.to_json() == b.to_json()

    def test_modus_ponens_fails_exactly_without_detachment(self):
        v = check_property(LogicSpec(L3_HALF, 0), PropertyId.MODUS_PONENS)
        assert (v.outcome, v.method) == (Outcome.FAILS, Method.EXACT)
        assert [c["expected"] for c in v.witness["claims"]] == [True, True, False]
        assert replay_claims(L3_HALF, v.witness["claims"])

    def test_conjunctive_undecided_without_draws(self):
        v = check_property(LogicSpec(L3_OR_AS_AND, 0), PropertyId.CONJUNCTIVE_PROPERTY)
        assert (v.outcome, v.witness) == (Outcome.UNDECIDED, None)

    def test_joint_consistency_undecided_when_no_witness_is_drawn(self):
        # negation as identity: {x, ~x} is {x}, never inconsistent alone
        v = check_property(LogicSpec(CL2_FLAT, 0), PropertyId.JOINT_CONSISTENCY)
        assert (v.outcome, v.method, v.witness) == (Outcome.UNDECIDED, Method.BOUNDED, None)
        assert v.notes.endswith("formulas in more letters are not searched")

    def test_joint_consistency_witness_is_a_one_letter_term(self):
        # {p, ~p} has a model at p = 1/2, so x = p is no witness
        v = check_property(LogicSpec(L3_HALF, 0), PropertyId.JOINT_CONSISTENCY)
        assert (v.outcome, v.method) == (Outcome.HOLDS, Method.WITNESS)
        assert v.witness["description"] == "witness x = ~p -> p"
        assert [c["expected"] for c in v.witness["claims"]] == [True, True, False]
        assert replay_claims(L3_HALF, v.witness["claims"])

    @pytest.mark.parametrize(
        "m, para_depth, prop, outcome, method",
        [
            # no stored witness replays, and nothing is sampled instead
            (L3_HALF, 1, PropertyId.IDEMPOTENCY, Outcome.UNDECIDED, Method.WITNESS),
            (L3_HALF, 1, PropertyId.TRANSITIVITY, Outcome.UNDECIDED, Method.WITNESS),
            (CL2_FLAT, 1, PropertyId.INCLUSION, Outcome.UNDECIDED, Method.WITNESS),
            (CL2_FLAT, 1, PropertyId.IDEMPOTENCY, Outcome.UNDECIDED, Method.WITNESS),
            (CL2_FLAT, 1, PropertyId.TRANSITIVITY, Outcome.UNDECIDED, Method.WITNESS),
            (CL2_FLAT, 1, PropertyId.MODUS_PONENS, Outcome.UNDECIDED, Method.WITNESS),
            # {p, ~p} has a model, so the negation condition fails
            (L3_HALF, 0, PropertyId.EXPLOSIVE, Outcome.UNDECIDED, Method.BOUNDED),
            # every candidate set has a model
            (CL2_FLAT, 0, PropertyId.INCONSISTENT_SETS_EXIST, Outcome.FAILS, Method.BOUNDED),
        ],
        ids=lambda x: getattr(x, "name", None),
    )
    def test_decided_without_draws(self, m, para_depth, prop, outcome, method):
        v = check_property(LogicSpec(m, para_depth), prop)
        assert (v.outcome, v.method) == (outcome, method)
        if outcome is Outcome.UNDECIDED:
            assert v.witness is None
        else:
            claims = v.witness["claims"]
            assert [(c["kind"], c["expected"]) for c in claims] == [("consistent", True)] * 3
            assert replay_claims(m, claims)


def _deciding(prop, decision):
    """`audit._CHECKERS` with `prop` decided as `decision`."""
    return {**audit._CHECKERS, prop: lambda cell: decision}


DT_ROWS = (
    PropertyId.FULL_DT,
    PropertyId.MODIFIED_FULL_DT,
    PropertyId.WEAK_DT_FWD,
    PropertyId.MODIFIED_WEAK_DT_FWD,
)


# the deduction-theorem arguments are checked on the grid's matrices and on
# five more, of two to four values
DT_MATRICES = (L3, G3, K3, lukasiewicz(4), goedel(4), CL2, L3_HALF, L3_OR_AS_AND)
# the brute-force instances: alpha and beta among the 16 formulas of depth at
# most 1 over p and q, and gamma empty or one of them
DT_FORMULAS = list(enumerate_formulas(["p", "q"], 1))
DT_GAMMAS = [FormulaSet(), *(FormulaSet([g]) for g in DT_FORMULAS)]
_MAP = re.compile(r"h\(([^)]*)\) = \(([^)]*)\)")


def _reported_maps(m, description):
    """The maps a witness description names, as dicts over the values."""
    maps = []
    for values, images in _MAP.findall(description):
        assert list(map(Fraction, values.split(", "))) == list(m.values)
        maps.append(dict(zip(m.values, map(Fraction, images.split(", ")))))
    return maps


class TestDeductionArguments:
    """The exact deduction-theorem arguments, against brute force and the
    tables."""

    @pytest.mark.parametrize("para_depth", [0, 1])
    @pytest.mark.parametrize("m", DT_MATRICES, ids=lambda m: m.name)
    def test_no_exact_holds_where_a_draw_refutes_it(self, m, para_depth):
        spec = LogicSpec(m, para_depth)
        decided = {prop: check_property(spec, prop) for prop in DT_ROWS}
        # a biconditional row fails wherever its forward row fails
        for full, forward in audit._FORWARD_ROWS.items():
            if decided[forward].outcome is Outcome.FAILS:
                assert decided[full].outcome is Outcome.FAILS
        exact = [
            prop
            for prop, v in decided.items()
            if (v.outcome, v.method) == (Outcome.HOLDS, Method.EXACT)
        ]
        # every exact HOLDS agrees with every instance, asked of entails or
        # para_entails; the rows share each query
        rel = entails if para_depth == 0 else para_entails
        for gamma, alpha, beta in product(DT_GAMMAS if exact else (), DT_FORMULAS, DT_FORMULAS):
            extended = rel(m, gamma.union([alpha]), beta).holds
            discharged = {}
            for prop in exact:
                biconditional = prop in audit._FORWARD_ROWS
                if not (extended or biconditional):
                    continue
                modified = prop in audit._MODIFIED_ROWS
                if modified not in discharged:
                    c = Imp(alpha, Imp(alpha, beta)) if modified else Imp(alpha, beta)
                    discharged[modified] = rel(m, gamma, c).holds
                held = discharged[modified] == extended if biconditional else discharged[modified]
                assert held, (prop.value, str(gamma), alpha.text, beta.text)

    @pytest.mark.parametrize("para_depth", [0, 1])
    @pytest.mark.parametrize("m", DT_MATRICES, ids=lambda m: m.name)
    def test_every_reported_endomorphism_is_one(self, m, para_depth):
        spec, designated = LogicSpec(m, para_depth), m.designated
        for prop in DT_ROWS:
            v = check_property(spec, prop)
            if v.outcome is not Outcome.HOLDS:
                continue
            maps = _reported_maps(m, v.witness["description"])
            assert maps, (prop.value, v.witness["description"])
            for h in maps:
                assert all(h[x] in designated for x in designated)
                assert all(h[m.neg[x]] == m.neg[h[x]] for x in m.values)
                for table in (m.or_, m.and_, m.imp):
                    assert all(h[table[x, y]] == table[h[x], h[y]] for x, y in table)
            # and between them they discharge every undesignated consequent
            for x, y in m.imp:
                c = m.imp[x, y]
                if prop in audit._MODIFIED_ROWS:
                    c = m.imp[x, c]
                if c not in designated:
                    assert any(h[x] in designated and h[y] not in designated for h in maps)

    @pytest.mark.parametrize("para_depth", [0, 1])
    def test_l4_modified_discharge_fails(self, para_depth):
        # {p} yields beta, but not p -> (p -> beta): the forward half of the
        # modified theorem fails, so the biconditional fails with it
        spec = LogicSpec(lukasiewicz(4), para_depth)
        fact = audit._dt_claims(
            audit._Cell(spec, PropertyId.MODIFIED_WEAK_DT_FWD),
            True, FormulaSet(), parse("p"), parse("~(p -> (p -> ~p))"),
        )
        assert replay_claims(spec.matrix, fact)
        v = check_property(spec, PropertyId.MODIFIED_WEAK_DT_FWD)
        assert (v.outcome, v.method) == (Outcome.FAILS, Method.EXACT)
        assert [c["expected"] for c in v.witness["claims"]] == [True, False]
        full = check_property(spec, PropertyId.MODIFIED_FULL_DT)
        assert full.outcome is Outcome.FAILS

    @pytest.mark.parametrize("para_depth", [0, 1])
    def test_l5_modified_discharge_is_undecided(self, para_depth):
        # the same refutation holds in L5, where five values are above the
        # search cap: the rows that cannot find it are UNDECIDED, not HOLDS
        spec = LogicSpec(lukasiewicz(5), para_depth)
        fact = audit._dt_claims(
            audit._Cell(spec, PropertyId.MODIFIED_WEAK_DT_FWD),
            True, FormulaSet(), parse("p"), parse("~(~p | p -> p -> ~p)"),
        )
        assert replay_claims(spec.matrix, fact)
        rows = [PropertyId.MODIFIED_WEAK_DT_FWD]
        if para_depth == 0:  # P(L5)'s biconditional fails by a stored converse witness
            rows.append(PropertyId.MODIFIED_FULL_DT)
        for prop in rows:
            v = check_property(spec, prop)
            assert (v.outcome, v.witness) == (Outcome.UNDECIDED, None), prop.value
            assert "exceed the search cap of 256" in v.notes

    def test_no_search_above_four_values(self, monkeypatch):
        def searched(*args):
            raise AssertionError("searched a five-valued matrix")

        monkeypatch.setattr(audit, "_endomorphisms", searched)
        monkeypatch.setattr(audit, "_one_letter_terms", searched)
        for para_depth in (0, 1):
            spec = LogicSpec(goedel(5), para_depth)
            v = check_property(spec, PropertyId.WEAK_DT_FWD)
            assert (v.outcome, v.method, v.witness) == (Outcome.UNDECIDED, Method.EXACT, None)
            assert v.notes == (
                "5^5 value maps exceed the search cap of 256, so no exact argument is tried"
            )
        # negation as identity: x = p is no witness of joint consistency
        flat = replace(goedel(5), name="g5-flat", neg={v: v for v in goedel(5).values})
        v = check_property(LogicSpec(flat, 0), PropertyId.JOINT_CONSISTENCY)
        assert (v.outcome, v.method, v.witness) == (Outcome.UNDECIDED, Method.BOUNDED, None)


@pytest.fixture(scope="module")
def report():
    return run_table()


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
        assert set(cell) == {"property", "logic", "outcome", "method", "witness", "notes"}
        assert doc["budget"] == {"seed": 0}

    def test_matches_golden_json(self, report):
        text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
        assert text == GOLDEN_AUDIT.read_text(encoding="utf-8")

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
                check_property(specs[col], prop)

    def test_gate_replays_every_holds_witness(self, report, monkeypatch):
        # the claims a HOLDS rests on, a lemma's premises included, replay too
        holding = [
            cell
            for cell, v in report.verdicts.items()
            if v.outcome is Outcome.HOLDS and v.witness is not None
        ]
        assert (PropertyId.MODUS_PONENS, "L3") in holding
        specs = dict(zip(COLUMN_NAMES, table_columns()))
        monkeypatch.setattr(audit, "replay_witness", lambda m, witness: False)
        for prop, col in holding:
            with pytest.raises(AssertionError, match="lacks a replayable witness"):
                check_property(specs[col], prop)

    @pytest.mark.parametrize(
        "witness", [None, {"description": "no claims", "claims": []}], ids=["none", "empty"]
    )
    def test_gate_refuses_a_fails_without_claims(self, monkeypatch, witness):
        decision = Decision(Outcome.FAILS, Method.BOUNDED, witness)
        monkeypatch.setattr(audit, "_CHECKERS", _deciding(PropertyId.INCLUSION, decision))
        with pytest.raises(AssertionError, match="^FAILS verdict for inclusion/L3 lacks"):
            check_property(LogicSpec(L3, 0), PropertyId.INCLUSION)

    def test_every_cell_timed(self, report):
        assert set(report.seconds) == set(report.verdicts)
        assert all(s > 0 for s in report.seconds.values())
        assert report.wall_s > 0
        # the per-cell times and claim counts say how the run went, not what it found
        assert 0 < report.claims_answered < report.claims_replayed
        text = json.dumps(report.to_json())
        assert "seconds" not in text and "claims_" not in text

    def test_the_cells_query_through_this_process(self, monkeypatch):
        # a wrapper put on a module binding, as a tracer does, sees the
        # grid's queries, because the cells are decided here
        calls = []
        entails = audit.entails

        def counting(*args):
            calls.append(args)
            return entails(*args)

        monkeypatch.setattr(audit, "entails", counting)
        run_table()
        assert calls

    def test_a_raising_cell_raises_its_exception(self, monkeypatch):
        def raising(spec, prop):
            raise ZeroDivisionError("cell broke")

        monkeypatch.setattr(audit, "check_property", raising)
        with pytest.raises(ZeroDivisionError, match="cell broke"):
            run_table()

    def test_text_grid(self, report):
        text = report.format_text()
        lines = text.splitlines()
        assert any("explosive" in line for line in lines)
        assert "✓" in text and "×" in text
        assert "Discrepancies:" in text


def _counting_answers(monkeypatch) -> dict:
    """Count how often each (matrix, question) reaches the semantics."""
    calls: dict = {}
    answer = audit._answer

    def counting(m, kind, gamma, alpha, read):
        key = (id(m), kind, None if gamma is None else tuple(gamma), alpha)
        calls[key] = calls.get(key, 0) + 1
        return answer(m, kind, gamma, alpha, read)

    monkeypatch.setattr(audit, "_answer", counting)
    return calls


class TestReplayScope:
    def test_a_scope_answers_as_plain_replay(self):
        # every claim of the seed-0 grid, with either expected value
        grid = json.loads(GOLDEN_AUDIT.read_text(encoding="utf-8"))["grid"]
        matrices = {spec.name: spec.matrix for spec in table_columns()}
        claims = [
            (matrices[v["logic"]], {**claim, "expected": expected})
            for v in grid.values()
            for claim in (v["witness"] or {}).get("claims", ())
            for expected in (True, False)
        ]
        assert claims
        plain = [replay_claim(m, claim) for m, claim in claims]
        with audit._replaying(audit._ReplayScope()):
            scoped = [replay_claim(m, claim) for m, claim in claims]
        assert scoped == plain
        assert plain.count(True) == len(claims) // 2

    def test_run_table_answers_each_distinct_claim_once(self, monkeypatch):
        calls = _counting_answers(monkeypatch)
        report = run_table()
        assert calls and set(calls.values()) == {1}
        assert report.claims_answered == len(calls)
        assert report.claims_answered < report.claims_replayed

    def test_a_standalone_cell_answers_each_claim_once(self, monkeypatch):
        # the stored witness's replay and the gate's replay share answers
        calls = _counting_answers(monkeypatch)
        v = check_property(LogicSpec(L3, 1), PropertyId.EXPLOSIVE)
        assert v.outcome is Outcome.FAILS
        assert calls and set(calls.values()) == {1}
        assert audit._SCOPE.get() is None

    def test_outside_a_scope_every_replay_recomputes(self, monkeypatch):
        calls = _counting_answers(monkeypatch)
        claim = {"kind": "entails", "gamma": ["p"], "alpha": "p", "expected": True}
        assert replay_claims(L3, [claim, claim])
        assert list(calls.values()) == [2]

    def test_no_scope_is_left_open(self, monkeypatch):
        run_table()
        assert audit._SCOPE.get() is None
        decide = audit.check_property
        scopes = []

        def broken(spec, prop):
            scopes.append(audit._SCOPE.get())
            if (prop, spec.name) == (PropertyId.IDEMPOTENCY, "P(G3)"):
                raise ZeroDivisionError("cell broke")
            return decide(spec, prop)

        monkeypatch.setattr(audit, "check_property", broken)
        with pytest.raises(ZeroDivisionError, match="cell broke"):
            run_table()
        assert scopes[0] is not None
        assert audit._SCOPE.get() is None

    def test_two_runs_share_nothing(self, monkeypatch):
        decide = audit.check_property
        scopes = []

        def recording(spec, prop):
            scopes.append(audit._SCOPE.get())
            return decide(spec, prop)

        monkeypatch.setattr(audit, "check_property", recording)
        first = run_table()
        calls = _counting_answers(monkeypatch)
        second = run_table()
        assert len({id(scope) for scope in scopes}) == 2
        # the second run recomputes every claim it answers
        assert sum(calls.values()) == second.claims_answered == first.claims_answered
        assert second.claims_replayed == first.claims_replayed


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

    @pytest.mark.parametrize("name", ["L3", "G3", "K3"])
    def test_suite_is_the_golden_witnesses(self, name):
        # every witness with claims in the matrix's two columns of the seed-0
        # grid, so a witness only a draw finds cannot drop out unnoticed
        grid = json.loads(GOLDEN_AUDIT.read_text(encoding="utf-8"))["grid"]
        expected = {
            f"{cell}: {v['witness']['description']}": v["witness"]["claims"]
            for cell, v in grid.items()
            if v["logic"] in (name, f"P({name})") and v["witness"] and v["witness"]["claims"]
        }
        suite = audit._SUITES[name]()
        assert len(suite) == len(expected)
        assert dict(suite) == expected

    def test_unknown_matrix(self):
        with pytest.raises(ValueError):
            verify_witness_suite(LogicSpec(builtin("cl2")))
