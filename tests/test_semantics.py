"""Evaluation, models, entailment, and classification tests."""

import json
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from paramat import audit, para, semantics
from paramat.formula import And, FormulaSet, Imp, Letter, Neg, Or, letters, parse
from paramat.matrix import builtin, goedel, load_matrix, lukasiewicz
from paramat.semantics import (
    Classification,
    EvaluationError,
    classify,
    entails,
    evaluate,
    is_consistent,
    models,
    tautology_free_check,
    valuations,
)

F0, FH, F1 = Fraction(0), Fraction(1, 2), Fraction(1)
# the JSON of the default audit grid
GOLDEN_AUDIT = Path(__file__).parent / "data" / "audit_seed0.json"
L3, G3, K3, CL2 = (builtin(n) for n in ("l3", "g3", "k3", "cl2"))
P, Q = Letter("p"), Letter("q")


class TestEvaluate:
    def test_connectives_l3(self):
        v = {"p": FH, "q": F1}
        assert evaluate(L3, v, parse("~p")) == FH
        assert evaluate(L3, v, parse("p | q")) == F1
        assert evaluate(L3, v, parse("p & q")) == FH
        assert evaluate(L3, v, parse("q -> p")) == FH
        assert evaluate(L3, v, parse("p -> p")) == F1

    def test_goedel_negation_collapses_middle(self):
        assert evaluate(G3, {"p": FH}, parse("~p")) == F0

    def test_kleene_middle_implication(self):
        assert evaluate(K3, {"p": FH}, parse("p -> p")) == FH

    def test_unassigned_letter(self):
        with pytest.raises(EvaluationError):
            evaluate(L3, {"p": F1}, parse("p & q"))


class TestValuations:
    def test_counts(self):
        assert len(list(valuations(L3, {"p", "q"}))) == 9
        assert len(list(valuations(CL2, {"p", "q", "r"}))) == 8
        assert list(valuations(L3, set())) == [{}]

    def test_order_deterministic(self):
        first = [v["p"] for v in valuations(L3, {"p"})]
        assert first == [F0, FH, F1]


class TestModels:
    def test_inconsistent_pair(self):
        assert models(L3, FormulaSet([P, Neg(P)])) == []

    def test_not_self_imp_has_no_models(self):
        assert models(L3, FormulaSet.from_text("~(p -> p)")) == []

    def test_counts(self):
        assert len(models(L3, FormulaSet([P]))) == 1
        assert len(models(L3, FormulaSet([P]), names={"p", "q"})) == 3

    def test_domain_must_cover(self):
        with pytest.raises(ValueError):
            models(L3, FormulaSet([P]), names={"q"})


class TestEntails:
    def test_disjunctive_syllogism(self):
        assert entails(L3, FormulaSet.from_text("p | q, ~p"), Q).holds

    def test_explosion_from_modelless_set(self):
        assert entails(L3, FormulaSet([P, Neg(P)]), Q).holds

    def test_k3_self_implication_fails_with_countermodel(self):
        result = entails(K3, FormulaSet(), parse("p -> p"))
        assert not result.holds
        assert result.countermodel == {"p": FH}

    def test_classical_modus_ponens(self):
        assert entails(CL2, FormulaSet.from_text("p, p -> q"), Q).holds

    def test_l3_modus_ponens_on_premises(self):
        assert entails(L3, FormulaSet.from_text("p, p -> q"), Q).holds

    def test_bool_protocol(self):
        assert bool(entails(L3, FormulaSet([P]), P))
        assert not bool(entails(L3, FormulaSet(), P))

    def test_fresh_letters_irrelevant(self):
        gamma = FormulaSet.from_text("p | q, ~p")
        assert entails(L3, gamma, Q).holds
        assert entails(L3, gamma.union([parse("r | ~r")]), Q).holds


class TestClassify:
    def test_l3(self):
        assert classify(L3, parse("p -> p")) is Classification.TAUTOLOGY
        assert classify(L3, parse("~(p -> p)")) is Classification.CONTRADICTION
        # p & ~p is never designated in L3 but takes value 1/2, not always 0
        assert (
            classify(L3, parse("p & ~p"))
            is Classification.UNSATISFIABLE_NONDEGENERATE
        )
        assert classify(L3, P) is Classification.CONTINGENT

    def test_g3_conjunction_contradiction(self):
        assert classify(G3, parse("p & ~p")) is Classification.CONTRADICTION

    def test_k3_no_tautologies(self):
        assert classify(K3, parse("p | ~p")) is Classification.CONTINGENT
        assert classify(K3, parse("p -> p")) is Classification.CONTINGENT

    def test_cl2(self):
        assert classify(CL2, parse("p | ~p")) is Classification.TAUTOLOGY
        assert classify(CL2, parse("p & ~p")) is Classification.CONTRADICTION


class TestConsistency:
    def test_examples(self):
        assert is_consistent(L3, FormulaSet([P]))
        assert is_consistent(L3, FormulaSet([Neg(P)]))
        assert not is_consistent(L3, FormulaSet([P, Neg(P)]))
        assert not is_consistent(L3, FormulaSet.from_text("~(p -> p)"))
        assert is_consistent(L3, FormulaSet())

    def test_k3_conjunction_inconsistent(self):
        assert not is_consistent(K3, FormulaSet.from_text("p & ~p"))

    def test_consistency_is_satisfiability(self):
        for m in (L3, G3, K3, CL2):
            for text in ("p", "p & q", "p | ~p", "~(p -> p)", "p & ~p, q"):
                gamma = FormulaSet.from_text(text)
                assert is_consistent(m, gamma) == bool(models(m, gamma))


class TestTautologyFree:
    def test_k3_is_tautology_free(self):
        assert tautology_free_check(K3, ["p", "q"], 2)

    def test_l3_is_not(self):
        assert not tautology_free_check(L3, ["p"], 1)

    def test_g3_is_not(self):
        assert not tautology_free_check(G3, ["p"], 1)

    def test_requires_middle_value(self):
        with pytest.raises(ValueError):
            tautology_free_check(CL2, ["p"], 1)

    def test_requires_letters(self):
        with pytest.raises(ValueError):
            tautology_free_check(K3, [], 1)


def _bool_eval(v, f):
    if isinstance(f, Letter):
        return v[f.name]
    if isinstance(f, Neg):
        return not _bool_eval(v, f.child)
    a, b = _bool_eval(v, f.left), _bool_eval(v, f.right)
    if isinstance(f, Or):
        return a or b
    if isinstance(f, And):
        return a and b
    return (not a) or b


def formula_strategy():
    leaves = st.sampled_from([Letter("p"), Letter("q")])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(Or, inner, inner),
            st.builds(And, inner, inner),
            st.builds(Imp, inner, inner),
        ),
        max_leaves=20,
    )


@given(formula_strategy(), st.booleans(), st.booleans())
def test_cl2_matches_boolean_oracle(f, bp, bq):
    v = {"p": F1 if bp else F0, "q": F1 if bq else F0}
    assert (evaluate(CL2, v, f) == F1) == _bool_eval({"p": bp, "q": bq}, f)


@given(formula_strategy())
def test_designated_iff_in_models(f):
    gamma = FormulaSet([f])
    model_count = len(models(L3, gamma, names={"p", "q"}))
    designated = sum(
        1 for v in valuations(L3, {"p", "q"}) if evaluate(L3, v, f) == F1
    )
    assert model_count == designated


# ---------------------------------------------------------------------------
# The bit-sliced engine against a per-valuation walk with `evaluate`


def _two_designated():
    """Four values, none of them 0, two designated, a non-monotone ->."""
    values = [Fraction(k, 4) for k in (1, 2, 3, 4)]
    text = [str(v) for v in values]
    return load_matrix({
        "name": "D4",
        "values": text,
        "designated": ["3/4", "1"],
        "neg": {str(x): str(Fraction(5, 4) - x) for x in values},
        "or": {f"{x}|{y}": str(max(x, y)) for x in values for y in values},
        "and": {f"{x}|{y}": str(min(x, y)) for x in values for y in values},
        "imp": {
            f"{x}|{y}": text[(i + 2 * j) % 4]
            for i, x in enumerate(values) for j, y in enumerate(values)
        },
    })


ENGINE_MATRICES = [L3, G3, K3, CL2, lukasiewicz(4), goedel(4), _two_designated()]


def _ref_models(m, gamma, names):
    return [
        v for v in valuations(m, names)
        if all(evaluate(m, v, g) in m.designated for g in gamma)
    ]


def _ref_countermodel(m, gamma, alpha):
    for v in _ref_models(m, gamma, gamma.letters() | letters(alpha)):
        if evaluate(m, v, alpha) not in m.designated:
            return v
    return None


def _ref_classify(m, alpha):
    values = [evaluate(m, v, alpha) for v in valuations(m, letters(alpha))]
    if all(x in m.designated for x in values):
        return Classification.TAUTOLOGY
    if any(x in m.designated for x in values):
        return Classification.CONTINGENT
    if F0 in m.values and F0 not in m.designated and set(values) == {F0}:
        return Classification.CONTRADICTION
    return Classification.UNSATISFIABLE_NONDEGENERATE


def _ref_masks(m, formulas, names):
    grid = list(valuations(m, names))
    masks = [
        sum(1 << i for i, v in enumerate(grid) if evaluate(m, v, f) in m.designated)
        for f in formulas
    ]
    return masks, (1 << len(grid)) - 1


def _ref_tables(m, gamma, alpha, names):
    """The consistent table of `gamma` and the entailing table of `alpha`,
    subset by subset from the reference masks."""
    (*member_masks, alpha_mask), full = _ref_masks(m, [*gamma, alpha], names)
    consistent = entailing = 0
    for s in range(1 << len(gamma)):
        models = full
        for i, mask in enumerate(member_masks):
            if s >> i & 1:
                models &= mask
        if models:
            consistent |= 1 << s
            if not models & ~alpha_mask:
                entailing |= 1 << s
    return consistent, [entailing]


def three_letter_formulas():
    leaves = st.sampled_from([Letter("p"), Letter("q"), Letter("r")])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(Or, inner, inner),
            st.builds(And, inner, inner),
            st.builds(Imp, inner, inner),
        ),
        max_leaves=10,
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ENGINE_MATRICES),
    st.sampled_from(ENGINE_MATRICES),
    st.lists(three_letter_formulas(), max_size=4),
    three_letter_formulas(),
    st.sets(st.sampled_from(["p", "q", "r", "s"])),
    # 1 puts every letter outside the block; 4 and 16 split the domain
    st.sampled_from([1, 4, 16, semantics._BLOCK]),
)
def test_engine_matches_reference_walk(m, other, gamma_list, alpha, extra, block):
    gamma = FormulaSet(gamma_list)
    names = gamma.letters() | extra
    domain = names | letters(alpha)
    expected = {
        id(x): (
            _ref_countermodel(x, gamma, alpha),
            bool(_ref_models(x, gamma, gamma.letters())),
            _ref_models(x, gamma, names),
            _ref_classify(x, alpha),
            _ref_tables(x, gamma, alpha, domain),
        )
        for x in (m, other)
    }
    with mock.patch.object(semantics, "_BLOCK", block):
        # every query twice, the second time read from the memo, with the
        # other matrix asked over the same domains in between
        for x in (m, other, m, other):
            countermodel, consistent, its_models, its_class, tables = expected[id(x)]
            result = entails(x, gamma, alpha)
            assert result.countermodel == countermodel
            assert result.holds == (result.countermodel is None)
            assert is_consistent(x, gamma) == consistent
            assert models(x, gamma, names) == its_models
            assert classify(x, alpha) is its_class
            assert para._tables(x, gamma, [alpha]) == tables


def test_domain_cache_follows_the_block_size():
    m = lukasiewicz(3)
    names = {"p", "q", "r"}
    assert len(list(semantics._blocks(m, names))) == 1
    # a domain kept at the default size must not hide the smaller blocks
    with mock.patch.object(semantics, "_BLOCK", 4):
        assert len(list(semantics._blocks(m, names))) == 9
        assert entails(m, FormulaSet([Or(P, Q)]), Letter("r")).countermodel == {
            "p": F0, "q": F1, "r": F0,
        }
    assert len(list(semantics._blocks(m, names))) == 1


def _audit_matrices(monkeypatch) -> list:
    """The matrices of the grid's columns, recorded as `run_table` builds them."""
    built = []
    table_columns = audit.table_columns

    def recording():
        columns = table_columns()
        built.extend(spec.matrix for spec in columns)
        return columns

    monkeypatch.setattr(audit, "table_columns", recording)
    return built


def _memo_sizes(m):
    return len(m.memo), max((len(memo) for _, memo, _ in m.memo.values()), default=0)


def test_memo_bounded_after_the_audit(monkeypatch):
    matrices = _audit_matrices(monkeypatch)
    audit.run_table()
    assert matrices
    for m in matrices:
        domains, largest = _memo_sizes(m)
        assert 0 < domains <= semantics._DOMAINS
        assert 0 < largest <= semantics._MEMO_SIZE


def test_audit_unchanged_when_the_caches_keep_little(monkeypatch):
    # with tiny bounds both caches are emptied again and again
    matrices = _audit_matrices(monkeypatch)
    monkeypatch.setattr(semantics, "_DOMAINS", 2)
    monkeypatch.setattr(semantics, "_MEMO_SIZE", 3)
    report = audit.run_table()
    for m in matrices:
        domains, largest = _memo_sizes(m)
        assert domains <= 2 and largest <= 3
    text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    assert text == GOLDEN_AUDIT.read_text(encoding="utf-8")


@pytest.mark.parametrize("m", ENGINE_MATRICES, ids=lambda m: m.name)
def test_engine_empty_premises_and_domain(m):
    empty = FormulaSet()
    assert is_consistent(m, empty)
    assert models(m, empty) == [{}]
    assert para._tables(m, empty) == (1, [])
    assert entails(m, empty, P).countermodel == {"p": m.values[0]}


def test_engine_designates_through_every_designated_value():
    d4 = _two_designated()
    assert classify(d4, parse("p | ~p")) is Classification.TAUTOLOGY
    # p & ~p never reaches 3/4 or 1, and there is no 0 to be always
    assert classify(d4, parse("p & ~p")) is Classification.UNSATISFIABLE_NONDEGENERATE
    assert [v["p"] for v in models(d4, FormulaSet([P]))] == [Fraction(3, 4), F1]


WIDE = [Letter(f"x{i:02d}") for i in range(16)]


def _bounded(query):
    """Run `query`; its wall time and peak traced allocation."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = query()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, elapsed, peak


@pytest.mark.parametrize("m", [L3, CL2], ids=lambda m: m.name)
def test_wide_domain_decided_in_its_first_block(m):
    # 16 letters: 3^16 (L3) or 2^16 (CL2) valuations, the first one decides
    disjunction = WIDE[0]
    for letter in WIDE[1:]:
        disjunction = Or(disjunction, letter)
    result, elapsed, peak = _bounded(lambda: entails(m, FormulaSet(), disjunction))
    assert result.countermodel == {x.name: F0 for x in WIDE}
    assert elapsed < 1.0 and peak < 8 * 2**20
    negations = FormulaSet(Neg(x) for x in WIDE)
    result, elapsed, peak = _bounded(lambda: is_consistent(m, negations))
    assert result
    assert elapsed < 1.0 and peak < 8 * 2**20
