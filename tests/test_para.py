"""Consistent-subset consequence, cross-checked against a brute-force oracle."""

import random
import time
import tracemalloc
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from paramat import para, semantics
from paramat.formula import (
    And,
    FormulaSet,
    Imp,
    Letter,
    Neg,
    Or,
    draw_formula,
    letters,
    parse,
    render,
)
from paramat.matrix import builtin, lukasiewicz
from paramat.para import (
    LogicSpec,
    SubsetBoundError,
    consistent_subsets,
    fresh_letter,
    is_para_consistent,
    logic_entails,
    maximal_consistent_subsets,
    para_entails,
)
from paramat.semantics import entails, evaluate, is_consistent, valuations

L3, G3, K3, CL2 = (builtin(n) for n in ("l3", "g3", "k3", "cl2"))
P, Q = Letter("p"), Letter("q")


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate every subset directly.


def oracle_consistent_subsets(m, gamma):
    out = []
    members = list(gamma)
    for size in range(len(members) + 1):
        for combo in combinations(members, size):
            subset = FormulaSet(combo)
            if is_consistent(m, subset):
                out.append(subset)
    return out


def oracle_maximal_consistent_subsets(m, gamma):
    consistent = oracle_consistent_subsets(m, gamma)
    members = [set(s.formulas) for s in consistent]
    out = [
        s
        for s, own in zip(consistent, members)
        if not any(own < other for other in members)
    ]
    return sorted(out, key=lambda s: tuple(render(f) for f in s))


def oracle_para_entails(m, gamma, alpha):
    """(holds, witness): first consistent entailing subset by (size, canonical)."""
    for subset in oracle_consistent_subsets(m, gamma):
        if entails(m, subset, alpha).holds:
            return True, subset
    return False, None


class TestConsistentSubsets:
    def test_pair(self):
        got = list(consistent_subsets(L3, FormulaSet([P, Neg(P)])))
        assert got == [FormulaSet(), FormulaSet([P]), FormulaSet([Neg(P)])]

    def test_empty_set_always_included(self):
        for m in (L3, G3, K3):
            assert FormulaSet() in list(
                consistent_subsets(m, FormulaSet.from_text("~(p -> p)"))
            )

    def test_k3_contradiction_only_empty(self):
        got = list(consistent_subsets(K3, FormulaSet.from_text("p & ~p")))
        assert got == [FormulaSet()]

    def test_bound(self):
        big = FormulaSet(Letter(f"x{i}") for i in range(17))
        with pytest.raises(SubsetBoundError):
            list(consistent_subsets(L3, big))


class TestMaximalConsistentSubsets:
    def test_pair(self):
        got = maximal_consistent_subsets(L3, FormulaSet([P, Neg(P)]))
        assert got == [FormulaSet([P]), FormulaSet([Neg(P)])]

    def test_consistent_set_is_its_own_mss(self):
        gamma = FormulaSet.from_text("p, q")
        assert maximal_consistent_subsets(L3, gamma) == [gamma]

    def test_fully_inconsistent_members(self):
        gamma = FormulaSet.from_text("~(p -> p), q")
        assert maximal_consistent_subsets(L3, gamma) == [FormulaSet([Q])]


def _mss_flag_by_flag(m, gamma):
    """`maximal_consistent_subsets` as it read the maximal table before: one
    step per flag of all 2^n, kept here as its reference."""
    n = len(gamma)
    consistent, _ = para._tables(m, gamma)
    extendable = 0
    for i, has in enumerate(para._with_member(n)):
        extendable |= (consistent & has) >> (1 << i)
    flags = bin(consistent & ~extendable)[:1:-1]
    out = [para._members_of(gamma, bits) for bits, flag in enumerate(flags) if flag == "1"]
    return sorted(out, key=lambda s: tuple(str(f) for f in s))


def _clashing_premises(rng, n):
    """`n` distinct premises over p, q, r, s, a third of them in pairs f, ~f."""
    out = set()
    while len(out) < n:
        f = draw_formula(rng, ["p", "q", "r", "s"], 2)
        group = {f, Neg(f)} if len(out) < 2 * (n // 6) else {f}
        if not out & group and len(out) + len(group) <= n:
            out |= group
    return FormulaSet(out)


@pytest.mark.parametrize("n", range(12, 17))
@pytest.mark.parametrize("m", [L3, G3, K3], ids=lambda m: m.name)
def test_mss_agree_with_the_flag_by_flag_reading(m, n):
    rng = random.Random(f"{m.name}/{n}")
    for _ in range(3):
        gamma = _clashing_premises(rng, n)
        assert maximal_consistent_subsets(m, gamma) == _mss_flag_by_flag(m, gamma)


@pytest.mark.parametrize("text", ["", "~(p -> p)"])
def test_empty_set_as_the_only_mss(text):
    gamma = FormulaSet.from_text(text)
    assert maximal_consistent_subsets(L3, gamma) == [FormulaSet()]
    assert _mss_flag_by_flag(L3, gamma) == [FormulaSet()]


class TestParaEntails:
    def test_no_explosion(self):
        gamma = FormulaSet([P, Neg(P)])
        assert not para_entails(L3, gamma, Q).holds

    def test_members_of_consistent_subsets_follow(self):
        gamma = FormulaSet([P, Neg(P)])
        assert para_entails(L3, gamma, P).holds
        assert para_entails(L3, gamma, Neg(P)).holds
        assert para_entails(L3, gamma, parse("p | q")).holds

    def test_witness_is_smallest(self):
        gamma = FormulaSet.from_text("p, q")
        result = para_entails(L3, gamma, P)
        assert result.holds
        assert result.witness == FormulaSet([P])

    def test_tautology_needs_empty_witness(self):
        result = para_entails(L3, FormulaSet([P, Neg(P)]), parse("q -> q"))
        assert result.holds
        assert result.witness == FormulaSet()

    def test_inconsistent_singleton_yields_nothing_but_tautologies(self):
        gamma = FormulaSet.from_text("~(p -> p)")
        assert not para_entails(L3, gamma, parse("~(p -> p)")).holds
        assert para_entails(L3, gamma, parse("p -> p")).holds


class TestFreshLetter:
    def test_avoids_used(self):
        assert fresh_letter(set()) == Letter("q0")
        assert fresh_letter({"q0", "q1"}) == Letter("q2")


class TestParaConsistency:
    @pytest.mark.parametrize("m", [L3, G3, K3, CL2], ids=lambda m: m.name)
    @pytest.mark.parametrize(
        "text", ["p, ~p", "~(p -> p)", "p & ~p", "p, ~p, q, ~q", ""]
    )
    def test_every_finite_set_para_consistent(self, m, text):
        assert is_para_consistent(m, FormulaSet.from_text(text))


class TestLogicSpec:
    def test_names(self):
        assert LogicSpec(L3, 0).name == "L3"
        assert LogicSpec(L3, 1).name == "P(L3)"
        assert LogicSpec(G3, 2).name == "P(P(G3))"

    def test_depth_range(self):
        with pytest.raises(ValueError):
            LogicSpec(L3, 3)
        with pytest.raises(ValueError):
            LogicSpec(L3, -1)


class TestLogicEntails:
    def test_depth0_is_plain_entailment(self):
        gamma = FormulaSet([P, Neg(P)])
        assert logic_entails(LogicSpec(L3, 0), gamma, Q)
        assert not logic_entails(LogicSpec(L3, 1), gamma, Q)

    def test_depth2_oracle_agreement(self):
        # depth 2 must equal: some subset S that is depth-1 consistent and
        # depth-1 entails alpha, with both sides computed via para_entails
        rng = random.Random(5)
        spec2 = LogicSpec(L3, 2)
        for _ in range(60):
            gamma = FormulaSet(
                draw_formula(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 4))
            )
            alpha = draw_formula(rng, ["p", "q"], 2)
            fresh = fresh_letter(gamma.letters() | {"p", "q"})
            expected = any(
                not para_entails(L3, FormulaSet(combo), fresh).holds
                and para_entails(L3, FormulaSet(combo), alpha).holds
                for size in range(len(gamma) + 1)
                for combo in combinations(list(gamma), size)
            )
            assert logic_entails(spec2, gamma, alpha) == expected

    @pytest.mark.parametrize("m", [L3, G3, K3, CL2], ids=lambda m: m.name)
    def test_transformed_depths_answer_as_para_entails(self, m):
        rng = random.Random(f"depths/{m.name}")
        for _ in range(60):
            gamma = FormulaSet(
                draw_formula(rng, ["p", "q", "r"], 2) for _ in range(rng.randint(0, 5))
            )
            alpha = draw_formula(rng, ["p", "q", "r"], 2)
            want = para_entails(m, gamma, alpha).holds
            assert logic_entails(LogicSpec(m, 1), gamma, alpha) == want
            assert logic_entails(LogicSpec(m, 2), gamma, alpha) == want


@pytest.mark.parametrize(
    "query",
    [
        lambda gamma: is_para_consistent(L3, gamma),
        lambda gamma: logic_entails(LogicSpec(L3, 2), gamma, P),
        lambda gamma: maximal_consistent_subsets(L3, gamma),
    ],
    ids=["is_para_consistent", "logic_entails_2", "maximal_consistent_subsets"],
)
def test_seventeen_premises_exceed_the_bound(query):
    big = FormulaSet(Letter(f"x{i}") for i in range(17))
    with pytest.raises(SubsetBoundError) as exc:
        query(big)
    assert str(exc.value) == "premise set of size 17 exceeds the bound 16"


# ---------------------------------------------------------------------------
# Oracle cross-checks


@pytest.mark.parametrize("m", [L3, G3, K3], ids=lambda m: m.name)
def test_oracle_agreement_seeded(m):
    rng = random.Random(11)
    for _ in range(80):
        gamma = FormulaSet(
            draw_formula(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 4))
        )
        alpha = draw_formula(rng, ["p", "q"], 2)
        assert list(consistent_subsets(m, gamma)) == oracle_consistent_subsets(
            m, gamma
        )
        assert maximal_consistent_subsets(m, gamma) == (
            oracle_maximal_consistent_subsets(m, gamma)
        )
        got = para_entails(m, gamma, alpha)
        want_holds, want_witness = oracle_para_entails(m, gamma, alpha)
        assert got.holds == want_holds
        assert got.witness == want_witness


def walk_depth2(m, gamma, alpha):
    """Depth-2 entailment by walking every submask of every subset (3^n steps),
    the reference for the up-closed tables."""
    n = len(gamma)
    fresh = fresh_letter(gamma.letters() | letters(alpha))
    domain = gamma.letters() | letters(alpha) | {fresh.name}
    grid = list(valuations(m, domain))
    full = (1 << len(grid)) - 1

    def mask(f):
        return sum(1 << i for i, v in enumerate(grid) if evaluate(m, v, f) in m.designated)

    member_masks = [mask(g) for g in gamma]
    alpha_mask, fresh_mask = mask(alpha), mask(fresh)
    and_masks = [full] * (1 << n)
    for t in range(1, 1 << n):
        low = t & -t
        and_masks[t] = and_masks[t ^ low] & member_masks[low.bit_length() - 1]

    def depth1_entails(bits, target_mask):
        sub = bits
        while True:
            if and_masks[sub] and and_masks[sub] & ~target_mask & full == 0:
                return True
            if sub == 0:
                return False
            sub = (sub - 1) & bits

    return any(
        not depth1_entails(bits, fresh_mask) and depth1_entails(bits, alpha_mask)
        for bits in range(1 << n)
    )


def formula_strategy():
    leaves = st.sampled_from([Letter("p"), Letter("q"), Letter("r")])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(Or, inner, inner),
            st.builds(And, inner, inner),
            st.builds(Imp, inner, inner),
        ),
        max_leaves=6,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([L3, G3, K3, CL2, lukasiewicz(4)]),
    st.lists(formula_strategy(), max_size=9),
    formula_strategy(),
    # 4 splits every domain of two or more letters into several blocks
    st.sampled_from([4, semantics._BLOCK]),
)
def test_oracle_agreement_hypothesis(m, gamma_list, alpha, block):
    gamma = FormulaSet(gamma_list)
    with mock.patch.object(semantics, "_BLOCK", block):
        assert list(consistent_subsets(m, gamma)) == oracle_consistent_subsets(m, gamma)
        assert maximal_consistent_subsets(m, gamma) == (
            oracle_maximal_consistent_subsets(m, gamma)
        )
        got = para_entails(m, gamma, alpha)
        assert (got.holds, got.witness) == oracle_para_entails(m, gamma, alpha)
        assert logic_entails(LogicSpec(m, 2), gamma, alpha) == walk_depth2(m, gamma, alpha)


@given(st.integers(0, 6), st.integers(0, 2**64 - 1))
def test_closures_match_their_definitions(n, table):
    table %= 1 << (1 << n)
    given_sets = [s for s in range(1 << n) if table >> s & 1]
    below = [s for s in range(1 << n) if any(s & t == s for t in given_sets)]
    assert para._down(table, n) == sum(1 << s for s in below)


def _timed(query):
    start = time.perf_counter()
    result = query()
    return result, time.perf_counter() - start


@pytest.mark.parametrize("m", [L3, CL2], ids=lambda m: m.name)
def test_sixteen_premises_at_depth_two(m):
    # the submask walk takes 3^16 (about 43 million) steps here
    gamma = FormulaSet.from_text(
        "p, q, r, ~p, ~q, ~r, p | q, p | r, q | r, p & q, p & r, q & r,"
        " p -> q, q -> r, r -> p, ~(p & ~p)"
    )
    assert len(gamma) == 16
    spec = LogicSpec(m, 2)
    result, elapsed = _timed(lambda: logic_entails(spec, gamma, parse("p | q")))
    assert result and elapsed < 1.0
    result, elapsed = _timed(lambda: logic_entails(spec, gamma, Letter("s")))
    assert not result and elapsed < 1.0


@pytest.mark.parametrize("m", [L3, CL2], ids=lambda m: m.name)
def test_twelve_premises_over_ten_letters(m):
    # 3^10 = 59 049 valuations (L3) with about 2 000 distinct membership sets
    xs = [Letter(f"x{i}") for i in range(10)]
    gamma = FormulaSet([*xs, Neg(xs[0]), Or(Neg(xs[1]), xs[2])])
    assert len(gamma) == 12
    result, elapsed = _timed(lambda: para_entails(m, gamma, xs[9]))
    assert result.witness == FormulaSet([xs[9]]) and elapsed < 1.0
    result, elapsed = _timed(lambda: maximal_consistent_subsets(m, gamma))
    assert result == [
        FormulaSet(f for f in gamma if f != Neg(xs[0])),
        FormulaSet(f for f in gamma if f != xs[0]),
    ]
    assert elapsed < 1.0


def _excluded_middles(n):
    """p_i | ~p_i for n letters: every one of the 2^n membership sets occurs."""
    return FormulaSet(Or(Letter(f"p{i}"), Neg(Letter(f"p{i}"))) for i in range(n))


def test_subset_tables_memory_does_not_follow_the_domain():
    # one mask of 3^12 bits per membership set would peak at about 300 MB
    gamma = _excluded_middles(12)
    tracemalloc.start()
    try:
        result = maximal_consistent_subsets(L3, gamma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == [gamma]
    assert peak < 8 * 2**20


def test_fourteen_letters_of_subsets():
    gamma = _excluded_middles(14)
    result, elapsed = _timed(lambda: maximal_consistent_subsets(L3, gamma))
    assert result == [gamma] and elapsed < 2.0
