"""Metalogic property auditor.

Checks sixteen structural properties (explosion, joint consistency,
Tarskian axioms, deduction-theorem variants, ...) for the three-valued
systems and their paraconsistent transforms, producing a 16x6 results grid.

Each row is a checker in ``_CHECKERS`` of one form: given the ``_Cell`` to
decide, it tries stored-witness probes (``_probe``) first, then the sampling
loop (``_sampled``) or an exact argument.  A checker returns only its
``Decision``; ``check_property`` makes the ``Verdict``, and first replays the
witness of every FAILS.  Every cell is compared against the expected
published value and mismatches are listed with their evidence instead of
being silently corrected.

``run_table`` decides the 96 cells in forked workers, one per CPU the
process may run on; each cell has its own seeded stream, so the grid does
not depend on which worker decides which cell.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, Sequence

from .formula import (
    And,
    Formula,
    FormulaSet,
    Imp,
    Letter,
    Neg,
    Or,
    draw_formula,
    parse,
    render,
)
from .matrix import Matrix, builtin, format_value, has_star_property, parse_value
from .para import (
    LogicSpec,
    consistent_subsets,
    is_para_consistent,
    logic_entails,
    para_entails,
)
from .semantics import (
    _binary_masks,
    _blocks,
    _designated,
    _masks,
    _neg_masks,
    classify,
    entails,
    evaluate,
    is_consistent,
    tautology_free_check,
)


class PropertyId(Enum):
    EXPLOSIVE = "explosive"
    JOINT_CONSISTENCY = "joint_consistency"
    CONJUNCTIVE_PROPERTY = "conjunctive_property"
    PARACONSISTENT = "paraconsistent"
    INCONSISTENT_SETS_EXIST = "inconsistent_sets_exist"
    P_IDEMPOTENT = "p_idempotent"
    INCLUSION = "inclusion"
    MONOTONICITY = "monotonicity"
    IDEMPOTENCY = "idempotency"
    TRANSITIVITY = "transitivity"
    WEAK_TRANSITIVITY = "weak_transitivity"
    MODUS_PONENS = "modus_ponens"
    FULL_DT = "full_dt"
    MODIFIED_FULL_DT = "modified_full_dt"
    WEAK_DT_FWD = "weak_dt_fwd"
    MODIFIED_WEAK_DT_FWD = "modified_weak_dt_fwd"


TABLE_ROWS: tuple[PropertyId, ...] = tuple(PropertyId)

ROW_LABELS = {
    PropertyId.EXPLOSIVE: "explosive property",
    PropertyId.JOINT_CONSISTENCY: "joint consistency",
    PropertyId.CONJUNCTIVE_PROPERTY: "conjunctive property",
    PropertyId.PARACONSISTENT: "paraconsistent",
    PropertyId.INCONSISTENT_SETS_EXIST: "inconsistent sets",
    PropertyId.P_IDEMPOTENT: "P(P(L)) = P(L)",
    PropertyId.INCLUSION: "inclusion",
    PropertyId.MONOTONICITY: "monotonicity",
    PropertyId.IDEMPOTENCY: "idempotency",
    PropertyId.TRANSITIVITY: "transitivity",
    PropertyId.WEAK_TRANSITIVITY: "weak transitivity",
    PropertyId.MODUS_PONENS: "modus ponens",
    PropertyId.FULL_DT: "full deduction theorem",
    PropertyId.MODIFIED_FULL_DT: "modified full deduction theorem",
    PropertyId.WEAK_DT_FWD: "weak deduction theorem (=>)",
    PropertyId.MODIFIED_WEAK_DT_FWD: "modified weak deduction theorem (=>)",
}


class Outcome(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    UNDECIDED = "UNDECIDED"


class Method(Enum):
    EXACT = "EXACT"
    WITNESS = "WITNESS"
    SAMPLED = "SAMPLED"
    BOUNDED = "BOUNDED"


# the letters sampled formulas are drawn over; `AuditBudget.letters` takes a prefix
LETTER_POOL = ("p", "q", "r", "s", "t")


@dataclass(frozen=True)
class AuditBudget:
    samples: int = 500
    depth: int = 3
    letters: int = 3
    gamma_size: int = 5
    seed: int = 0

    def validate(self) -> None:
        if min(self.samples, self.depth, self.letters, self.gamma_size) <= 0:
            raise ValueError("budget components must be positive")
        if self.gamma_size < 2:
            # modus ponens samples side premises next to a and a -> b
            raise ValueError("gamma_size must be at least 2")
        if self.letters > len(LETTER_POOL):
            raise ValueError(f"letters must be at most {len(LETTER_POOL)}")

    @property
    def bounds(self) -> tuple[int, int, int]:
        return (self.depth, self.letters, self.gamma_size)


@dataclass
class Verdict:
    property: PropertyId
    logic_name: str
    outcome: Outcome
    method: Method
    witness: dict | None
    samples_run: int
    bounds: tuple[int, int, int]
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "property": self.property.value,
            "logic": self.logic_name,
            "outcome": self.outcome.value,
            "method": self.method.value,
            "witness": self.witness,
            "samples_run": self.samples_run,
            "bounds": list(self.bounds),
            "notes": self.notes,
        }


@dataclass
class Decision:
    """A checker's verdict; ``check_property`` adds property, logic and bounds.

    `samples_run` counts the random draws the checker made before it stopped.
    """

    outcome: Outcome
    method: Method
    witness: dict | None = None
    samples_run: int = 0
    notes: str = ""


def table_columns() -> list[LogicSpec]:
    """The six column logics of the results grid, in grid order."""
    return [
        LogicSpec(m, para_depth)
        for m in map(builtin, ("l3", "g3", "k3"))
        for para_depth in (0, 1)
    ]


COLUMN_NAMES = ("L3", "P(L3)", "G3", "P(G3)", "K3", "P(K3)")

# Expected published values per row, in column order L3, P(L3), G3, P(G3), K3, P(K3).
PUBLISHED_TABLE: dict[PropertyId, tuple[bool, ...]] = {
    PropertyId.EXPLOSIVE: (True, False, True, False, True, False),
    PropertyId.JOINT_CONSISTENCY: (True, True, True, True, True, True),
    PropertyId.CONJUNCTIVE_PROPERTY: (True, False, True, False, True, False),
    PropertyId.PARACONSISTENT: (False, True, False, True, False, True),
    PropertyId.INCONSISTENT_SETS_EXIST: (True, False, True, False, True, False),
    PropertyId.P_IDEMPOTENT: (True, True, True, True, True, True),
    PropertyId.INCLUSION: (True, False, True, False, True, False),
    PropertyId.MONOTONICITY: (True, True, True, True, True, True),
    PropertyId.IDEMPOTENCY: (True, False, True, False, True, False),
    PropertyId.TRANSITIVITY: (True, False, True, False, True, False),
    PropertyId.WEAK_TRANSITIVITY: (True, True, True, True, True, True),
    PropertyId.MODUS_PONENS: (True, False, True, False, True, False),
    PropertyId.FULL_DT: (False, False, True, False, False, False),
    PropertyId.MODIFIED_FULL_DT: (True, True, True, False, False, False),
    PropertyId.WEAK_DT_FWD: (False, False, True, True, False, False),
    PropertyId.MODIFIED_WEAK_DT_FWD: (True, True, True, True, False, False),
}

# Cells where the computed ground truth is expected to disagree with the
# published value: joint consistency for the transformed logics (no set is
# inconsistent after the transform, so the existential fails) and the
# modified full deduction theorem for P(L3) (its converse has a
# counterexample, so the biconditional fails).
KNOWN_DISCREPANCIES: frozenset[tuple[PropertyId, str]] = frozenset(
    {
        (PropertyId.JOINT_CONSISTENCY, "P(L3)"),
        (PropertyId.JOINT_CONSISTENCY, "P(G3)"),
        (PropertyId.JOINT_CONSISTENCY, "P(K3)"),
        (PropertyId.MODIFIED_FULL_DT, "P(L3)"),
    }
)


# ---------------------------------------------------------------------------
# Replayable claims


def _gamma_strs(gamma: FormulaSet) -> list[str]:
    return [render(f) for f in gamma]


def claim_entails(
    para_depth: int, gamma: FormulaSet, alpha: Formula, expected: bool
) -> dict:
    """Claim that `gamma` yields `alpha`, or not, in the base or transformed logic."""
    return {
        "kind": "entails" if para_depth == 0 else "para_entails",
        "gamma": _gamma_strs(gamma),
        "alpha": render(alpha),
        "expected": expected,
    }


def claim_consistent(para_depth: int, gamma: FormulaSet, expected: bool) -> dict:
    """Claim that `gamma` is consistent, or not, in the base or transformed logic."""
    return {
        "kind": "consistent" if para_depth == 0 else "para_consistent",
        "gamma": _gamma_strs(gamma),
        "expected": expected,
    }


def replay_claim(m: Matrix, claim: dict) -> bool:
    """Recompute a claim against the semantics and report whether it matches."""
    kind = claim["kind"]
    if "gamma" in claim:
        gamma = FormulaSet(parse(s) for s in claim["gamma"])
    if kind == "entails":
        got = entails(m, gamma, parse(claim["alpha"])).holds
    elif kind == "para_entails":
        got = para_entails(m, gamma, parse(claim["alpha"])).holds
    elif kind == "logic_entails":
        got = logic_entails(LogicSpec(m, claim["depth"]), gamma, parse(claim["alpha"]))
    elif kind == "consistent":
        got = is_consistent(m, gamma)
    elif kind == "para_consistent":
        got = is_para_consistent(m, gamma)
    elif kind == "classify":
        got = classify(m, parse(claim["alpha"])).value
    elif kind == "consistent_subsets":
        got = [_gamma_strs(s) for s in consistent_subsets(m, gamma)]
    elif kind == "star_property":
        got = has_star_property(m)
    elif kind == "eval":
        valuation = {k: parse_value(v) for k, v in claim["valuation"].items()}
        got = format_value(evaluate(m, valuation, parse(claim["formula"])))
    elif kind == "tautology_free":
        got = tautology_free_check(m, claim["letters"], claim["depth"])
    else:
        raise ValueError(f"unknown claim kind: {kind!r}")
    return got == claim["expected"]


def replay_claims(m: Matrix, claims: Sequence[dict]) -> bool:
    return all(replay_claim(m, claim) for claim in claims)


def replay_witness(m: Matrix, witness: dict) -> bool:
    return replay_claims(m, witness.get("claims", ()))


# ---------------------------------------------------------------------------
# The checker form: stored-witness probes and the sampling loop

P, Q = Letter("p"), Letter("q")
NOT_SELF_IMP = parse("~(p -> p)")  # unsatisfiable wherever 1 is the sole designated value
P_AND_NOT_P = parse("p & ~p")


@dataclass(frozen=True)
class _Cell:
    """One grid cell under audit: a column logic, a row and the budget."""

    spec: LogicSpec
    prop: PropertyId
    budget: AuditBudget

    def rel(self, gamma: FormulaSet, alpha: Formula) -> bool:
        """The column's consequence relation."""
        if self.spec.para_depth == 0:
            return entails(self.spec.matrix, gamma, alpha).holds
        return para_entails(self.spec.matrix, gamma, alpha).holds

    def claim(self, gamma: FormulaSet, alpha: Formula, expected: bool) -> dict:
        """A replayable claim about the column's consequence relation."""
        return claim_entails(self.spec.para_depth, gamma, alpha, expected)

    def stream(self) -> random.Random:
        """The cell's seeded random stream."""
        return random.Random(f"{self.budget.seed}|{self.prop.value}|{self.spec.name}")

    def letters(self) -> list[str]:
        """The letters that sampled formulas are drawn over."""
        return list(LETTER_POOL[: self.budget.letters])


def _sample_set(
    rng: random.Random, names: list[str], depth: int, max_size: int
) -> FormulaSet:
    size = rng.randint(0, max_size)
    return FormulaSet(draw_formula(rng, names, depth) for _ in range(size))


def _probe(cell: _Cell, description: str, claims: list[dict]) -> Decision | None:
    """FAILS by a stored witness if all of its claims replay, else None."""
    if replay_claims(cell.spec.matrix, claims):
        witness = {"description": description, "claims": claims}
        return Decision(Outcome.FAILS, Method.WITNESS, witness)
    return None


def _sampled(
    cell: _Cell,
    description: str,
    draw: Callable[[random.Random, list[str]], list[dict] | None],
    probes: Sequence[tuple[str, list[dict]]] = (),
    count_hits: bool = False,
) -> Decision:
    """Stored-witness `probes`, (description, claims) pairs, first; then the
    row's `draw` step once per sample on the cell's seeded stream.

    `draw` returns None when the sample's antecedent does not hold, [] when
    the sample agrees with the property, or a counterexample's claims, which
    decide FAILS.  With `count_hits` the HOLDS notes count the antecedents.
    """
    for stored, claims in probes:
        found = _probe(cell, stored, claims)
        if found:
            return found
    rng = cell.stream()
    names = cell.letters()
    hits = 0
    for drawn in range(1, cell.budget.samples + 1):
        claims = draw(rng, names)
        if claims is None:
            continue
        hits += 1
        if claims:
            witness = {"description": description, "claims": claims}
            return Decision(Outcome.FAILS, Method.SAMPLED, witness, drawn)
    notes = f"{hits} samples had the antecedent" if count_hits else ""
    return Decision(Outcome.HOLDS, Method.SAMPLED, None, cell.budget.samples, notes)


# ---------------------------------------------------------------------------
# Property checkers


def _check_explosive(cell: _Cell) -> Decision:
    m = cell.spec.matrix
    pair = FormulaSet([P, Neg(P)])
    if cell.spec.para_depth == 0:
        if has_star_property(m) and not is_consistent(m, pair):
            # negation pushes designated values out of the designated set, so a
            # formula and its negation are never jointly designated: any set
            # yielding both has no models and entails everything
            witness = {
                "description": "negation maps designated values outside the "
                "designated set; a set yielding x and ~x has no models",
                "claims": [
                    {"kind": "star_property", "expected": True},
                    claim_consistent(0, pair, False),
                    claim_entails(0, pair, Q, True),
                ],
            }
            return Decision(Outcome.HOLDS, Method.EXACT, witness)
        return Decision(
            Outcome.UNDECIDED,
            Method.BOUNDED,
            notes="matrix lacks the negation condition; no exact argument available",
        )
    found = _probe(
        cell,
        "{p, ~p} yields both p and ~p but not q, so it is not inconsistent",
        [
            cell.claim(pair, P, True),
            cell.claim(pair, Neg(P), True),
            cell.claim(pair, Q, False),
        ],
    )
    return found or Decision(
        Outcome.UNDECIDED,
        Method.WITNESS,
        notes="stored witness did not demonstrate a failure for this matrix",
    )


def _check_paraconsistent(cell: _Cell) -> Decision:
    # the explosion evidence serves both ways: a HOLDS here keeps the
    # explosion counterexample, a FAILS the exact explosion argument
    explosive = _check_explosive(cell)
    flipped = {Outcome.HOLDS: Outcome.FAILS, Outcome.FAILS: Outcome.HOLDS}
    outcome = flipped.get(explosive.outcome, explosive.outcome)
    return replace(explosive, outcome=outcome, notes="paraconsistent = not explosive")


_INCONSISTENT_CANDIDATES = (
    FormulaSet([P, Neg(P)]),
    FormulaSet([NOT_SELF_IMP]),
    FormulaSet([P_AND_NOT_P]),
)


def _fresh_letter_argument(cell: _Cell, description: str) -> Decision:
    """FAILS exactly: under the transform no finite set is inconsistent."""
    depth = cell.spec.para_depth
    claims = [claim_consistent(depth, s, True) for s in _INCONSISTENT_CANDIDATES]
    witness = {"description": description, "claims": claims}
    return Decision(Outcome.FAILS, Method.EXACT, witness)


def _check_joint_consistency(cell: _Cell) -> Decision:
    if cell.spec.para_depth >= 1:
        return _fresh_letter_argument(
            cell,
            "the designated set is proper, so a fresh letter escapes the "
            "transformed consequences of every finite set; no set is "
            "inconsistent and the required {x, ~x} cannot exist",
        )
    rng, names, samples = cell.stream(), cell.letters(), cell.budget.samples
    # x = p first, then up to `samples` drawn candidates
    for drawn in range(samples + 1):
        x = draw_formula(rng, names, cell.budget.depth) if drawn else P
        claims = [
            claim_consistent(0, FormulaSet([x]), True),
            claim_consistent(0, FormulaSet([Neg(x)]), True),
            claim_consistent(0, FormulaSet([x, Neg(x)]), False),
        ]
        if replay_claims(cell.spec.matrix, claims):
            witness = {"description": f"witness x = {render(x)}", "claims": claims}
            return Decision(Outcome.HOLDS, Method.WITNESS, witness, drawn)
    witness = {"description": "no witness found within budget", "claims": []}
    return Decision(Outcome.FAILS, Method.BOUNDED, witness, samples)


def _check_inconsistent_sets(cell: _Cell) -> Decision:
    if cell.spec.para_depth >= 1:
        return _fresh_letter_argument(
            cell,
            "fresh-letter argument: every finite set stays consistent under "
            "the transform",
        )
    for candidate in _INCONSISTENT_CANDIDATES:
        if not is_consistent(cell.spec.matrix, candidate):
            witness = {
                "description": f"inconsistent set {candidate}",
                "claims": [claim_consistent(0, candidate, False)],
            }
            return Decision(Outcome.HOLDS, Method.WITNESS, witness)
    witness = {
        "description": "all candidate sets have models",
        "claims": [claim_consistent(0, s, True) for s in _INCONSISTENT_CANDIDATES],
    }
    return Decision(Outcome.FAILS, Method.BOUNDED, witness)


def _check_conjunctive(cell: _Cell) -> Decision:
    if cell.spec.para_depth >= 1:
        return _bounded_conjunctive_refutation(cell)
    rng, names, depth = cell.stream(), cell.letters(), cell.budget.depth
    for drawn in range(1, cell.budget.samples + 1):
        a = draw_formula(rng, names, depth)
        b = draw_formula(rng, names, depth)
        z = And(a, b)
        # a HOLDS keeps no claims, so each sample is decided directly
        together = FormulaSet([z])
        if not (
            cell.rel(FormulaSet([a, b]), z) and cell.rel(together, a) and cell.rel(together, b)
        ):
            return Decision(
                Outcome.UNDECIDED,
                Method.SAMPLED,
                samples_run=drawn,
                notes=f"conjunction is not equivalent to the pair "
                f"({render(a)}, {render(b)}); other combiners not searched",
            )
    return Decision(
        Outcome.HOLDS,
        Method.SAMPLED,
        samples_run=cell.budget.samples,
        notes="z = x & y generates the same consequences as {x, y} on all samples",
    )


def _bounded_conjunctive_refutation(cell: _Cell) -> Decision:
    """Refute the conjunctive property for a transformed logic, within bounds.

    For x = p, y = ~p the transformed consequences include p|q and ~p|q but
    not q.  A single formula z with the same consequences would have to yield
    all three or none; the search walks every achievable truth-value vector
    over {p, q} up to the depth bound and checks the three probes.
    """
    m = cell.spec.matrix
    pair = FormulaSet([P, Neg(P)])
    probe_a, probe_b, probe_q = parse("p | q"), parse("~p | q"), Q
    premises = _probe(
        cell,
        "for x = p, y = ~p no single formula over {p, q} up to "
        "the depth bound yields p|q and ~p|q without yielding q",
        [
            cell.claim(pair, probe_a, True),
            cell.claim(pair, probe_b, True),
            cell.claim(pair, probe_q, False),
        ],
    )
    if premises is None:
        return Decision(
            Outcome.UNDECIDED,
            Method.BOUNDED,
            notes="probe premises do not hold for this matrix",
        )
    # at most MAX_VALUES ** 2 valuations, so one block; unpacking checks it
    ((_, letter_masks, memo, full),) = _blocks(m, {"p", "q"})
    mask_a, mask_b, mask_q = (
        _designated(m, _masks(m, probe, letter_masks, memo))
        for probe in (probe_a, probe_b, probe_q)
    )

    def candidate_passes(mask: int) -> bool:
        if mask == 0:
            # inconsistent singleton: its transformed consequences are the
            # tautologies, so the probes must all be tautologies (q is not)
            return mask_a == full and mask_b == full and mask_q != full
        return mask & ~mask_a == 0 and mask & ~mask_b == 0 and mask & ~mask_q != 0

    reached: dict[tuple, Formula] = {}
    level: dict[tuple, Formula] = {letter_masks["p"]: P, letter_masks["q"]: Q}
    checked = 0
    for step in range(cell.budget.depth + 1):
        if step:
            level = _next_level(m, reached, level)
        for vec, rep in level.items():
            checked += 1
            if candidate_passes(_designated(m, vec)):
                return Decision(
                    Outcome.UNDECIDED,
                    Method.BOUNDED,
                    notes=f"candidate {render(rep)} passes the probes",
                )
        reached.update(level)
    witness = {**premises.witness, "candidates_checked": checked}
    return Decision(Outcome.FAILS, Method.BOUNDED, witness)


def _next_level(
    m: Matrix, reached: dict[tuple, Formula], frontier: dict[tuple, Formula]
) -> dict[tuple, Formula]:
    """Value-mask vectors first reached one connective above `frontier`,
    with formulas."""
    new: dict[tuple, Formula] = {}
    cum = list(reached.items())
    # negations of the frontier, then binaries touching the frontier
    for vec in frontier:
        nv = tuple(_neg_masks(m.neg_ix, vec))
        if nv not in reached and nv not in new:
            new[nv] = Neg(reached[vec])
    for table, ctor in ((m.or_ix, Or), (m.and_ix, And), (m.imp_ix, Imp)):
        for va, ra in cum:
            for vb, rb in cum:
                if va not in frontier and vb not in frontier:
                    continue
                out = tuple(_binary_masks(table, va, vb))
                if out not in reached and out not in new:
                    new[out] = ctor(ra, rb)
    return new


def _check_p_idempotent(cell: _Cell) -> Decision:
    one = LogicSpec(cell.spec.matrix, 1)
    two = LogicSpec(cell.spec.matrix, 2)
    depth = min(cell.budget.depth, 2)

    def draw(rng: random.Random, names: list[str]) -> list[dict]:
        gamma = _sample_set(rng, names, depth, cell.budget.gamma_size)
        alpha = draw_formula(rng, names, depth)
        first = logic_entails(one, gamma, alpha)
        second = logic_entails(two, gamma, alpha)
        if first == second:
            return []
        return [
            {
                "kind": "logic_entails",
                "depth": para_depth,
                "gamma": _gamma_strs(gamma),
                "alpha": render(alpha),
                "expected": got,
            }
            for para_depth, got in ((1, first), (2, second))
        ]

    description = "query answered differently at transform depths 1 and 2"
    return _sampled(cell, description, draw)


_INCLUSION_CANDIDATES = (NOT_SELF_IMP, P_AND_NOT_P)


def _check_inclusion(cell: _Cell) -> Decision:
    budget = cell.budget
    probes = []
    if cell.spec.para_depth >= 1:
        for w in _INCLUSION_CANDIDATES:
            single = FormulaSet([w])
            claims = [claim_consistent(0, single, False), cell.claim(single, w, False)]
            probes.append((f"{{{render(w)}}} does not yield itself", claims))

    def draw(rng: random.Random, names: list[str]) -> list[dict] | None:
        gamma = _sample_set(rng, names, budget.depth, budget.gamma_size)
        if not gamma:
            return None
        alpha = rng.choice(list(gamma))
        if cell.rel(gamma, alpha):
            return []
        return [cell.claim(gamma, alpha, False)]

    return _sampled(cell, "a premise is not among the consequences", draw, probes)


def _check_monotonicity(cell: _Cell) -> Decision:
    budget = cell.budget

    def draw(rng: random.Random, names: list[str]) -> list[dict] | None:
        gamma = _sample_set(rng, names, budget.depth, budget.gamma_size)
        delta = _sample_set(rng, names, budget.depth, budget.gamma_size)
        if gamma and rng.random() < 0.5:
            alpha: Formula = rng.choice(list(gamma))
        elif gamma and rng.random() < 0.5:
            alpha = Or(rng.choice(list(gamma)), draw_formula(rng, names, 1))
        else:
            alpha = draw_formula(rng, names, budget.depth)
        if not cell.rel(gamma, alpha):
            return None
        if cell.rel(gamma.union(delta), alpha):
            return []
        return [
            cell.claim(gamma, alpha, True),
            cell.claim(gamma.union(delta), alpha, False),
        ]

    description = "adding premises removed a consequence"
    return _sampled(cell, description, draw, count_hits=True)


# (stored-witness description, sampled-counterexample description) per row
_CUT_DESCRIPTIONS = {
    PropertyId.IDEMPOTENCY: (
        "p|q and ~p are consequences of {p, ~p}, and q follows from them, "
        "but q is not a consequence of {p, ~p}",
        "consequences of consequences escape the set",
    ),
    PropertyId.TRANSITIVITY: (
        "every member of {p|q, ~p} follows from {p, ~p} and q follows "
        "from {p|q, ~p}, yet q does not follow from {p, ~p}",
        "chaining through an intermediate set fails",
    ),
}


def _check_cut(cell: _Cell) -> Decision:
    """Idempotency and transitivity, which both chain consequences."""
    stored, sampled = _CUT_DESCRIPTIONS[cell.prop]
    budget = cell.budget
    probes = []
    if cell.spec.para_depth >= 1:
        # {p, ~p} yields p|q and ~p, which yield q; {p, ~p} does not
        gamma, delta = FormulaSet([P, Neg(P)]), FormulaSet([parse("p | q"), Neg(P)])
        claims = [
            cell.claim(gamma, parse("p | q"), True),
            cell.claim(gamma, Neg(P), True),
            cell.claim(delta, Q, True),
            cell.claim(gamma, Q, False),
        ]
        probes.append((stored, claims))

    def consequences(rng: random.Random, names: list[str], gamma: FormulaSet):
        """Up to two consequences of `gamma`, found in at most eight tries."""
        out: list[Formula] = []
        members = list(gamma)
        for _ in range(8):
            if len(out) >= 2:
                break
            if members and rng.random() < 0.6:
                guess: Formula = Or(rng.choice(members), draw_formula(rng, names, 1))
            else:
                guess = draw_formula(rng, names, budget.depth)
            if cell.rel(gamma, guess):
                out.append(guess)
        return out

    def draw(rng: random.Random, names: list[str]) -> list[dict] | None:
        gamma = _sample_set(rng, names, budget.depth, budget.gamma_size)
        delta = consequences(rng, names, gamma)
        if not delta:
            return None
        alpha = draw_formula(rng, names, budget.depth)
        if not cell.rel(FormulaSet(delta), alpha):
            return None
        if cell.rel(gamma, alpha):
            return []
        claims = [cell.claim(gamma, d, True) for d in delta]
        claims.append(cell.claim(FormulaSet(delta), alpha, True))
        claims.append(cell.claim(gamma, alpha, False))
        return claims

    return _sampled(cell, sampled, draw, probes, count_hits=True)


def _biased_successor(
    rng: random.Random, f: Formula, names: list[str], depth: int
) -> Formula:
    roll = rng.random()
    if roll < 0.3:
        return f
    if roll < 0.6:
        return Or(f, draw_formula(rng, names, 1))
    return draw_formula(rng, names, depth)


def _check_weak_transitivity(cell: _Cell) -> Decision:
    depth = cell.budget.depth

    def draw(rng: random.Random, names: list[str]) -> list[dict] | None:
        alpha = draw_formula(rng, names, depth)
        beta = _biased_successor(rng, alpha, names, depth)
        gamma_f = _biased_successor(rng, beta, names, depth)
        from_alpha, from_beta = FormulaSet([alpha]), FormulaSet([beta])
        if not (cell.rel(from_alpha, beta) and cell.rel(from_beta, gamma_f)):
            return None
        if cell.rel(from_alpha, gamma_f):
            return []
        return [
            cell.claim(from_alpha, beta, True),
            cell.claim(from_beta, gamma_f, True),
            cell.claim(from_alpha, gamma_f, False),
        ]

    return _sampled(cell, "singleton chain breaks", draw, count_hits=True)


_MP_READING = "read as the closure rule: a, a->b in Cn(G) imply b in Cn(G)"


def _check_modus_ponens(cell: _Cell) -> Decision:
    """Modus ponens read as a closure rule: if a and a->b are consequences of a
    set, then so is b."""
    budget = cell.budget

    def draw(rng: random.Random, names: list[str]) -> list[dict] | None:
        alpha = draw_formula(rng, names, budget.depth - 1)
        beta = draw_formula(rng, names, budget.depth - 1)
        gamma = _sample_set(rng, names, budget.depth, budget.gamma_size - 2)
        if rng.random() < 0.7:
            gamma = gamma.union([alpha, Imp(alpha, beta)])
        if not (cell.rel(gamma, alpha) and cell.rel(gamma, Imp(alpha, beta))):
            return None
        if cell.rel(gamma, beta):
            return []
        return [
            cell.claim(gamma, alpha, True),
            cell.claim(gamma, Imp(alpha, beta), True),
            cell.claim(gamma, beta, False),
        ]

    probes = []
    if cell.spec.para_depth >= 1:
        gamma = FormulaSet([P, parse("~p & (p -> q)")])
        claims = [
            cell.claim(gamma, P, True),
            cell.claim(gamma, Imp(P, Q), True),
            cell.claim(gamma, Q, False),
        ]
        probes.append(("{p, ~p & (p -> q)} yields p and p -> q but not q", claims))
    description = "closure under detachment fails"
    decided = _sampled(cell, description, draw, probes, count_hits=True)
    decided.notes = "; ".join(filter(None, (_MP_READING, decided.notes)))
    return decided


# Stored instances (forward?, alpha, beta) over the empty premise set; the
# converse ones apply to the biconditional rows only.
_DT_CANDIDATES = (
    (True, P, P),
    (True, P, parse("~(p -> ~p)")),
    (True, P_AND_NOT_P, Q),
    (False, NOT_SELF_IMP, NOT_SELF_IMP),
    (False, P_AND_NOT_P, P_AND_NOT_P),
)


def _check_deduction(cell: _Cell) -> Decision:
    """One of the four deduction-theorem rows.

    The "full" variants are biconditionals; the "(=>)" variants only assert
    the forward direction (premise discharge).  Stored counterexample
    candidates are tried first so failures are deterministic; otherwise the
    implication is sampled.
    """
    budget, prop = cell.budget, cell.prop
    biconditional = prop in (PropertyId.FULL_DT, PropertyId.MODIFIED_FULL_DT)
    modified = prop in (PropertyId.MODIFIED_FULL_DT, PropertyId.MODIFIED_WEAK_DT_FWD)
    directions = (True, False) if biconditional else (True,)

    def instance(forward: bool, gamma: FormulaSet, alpha: Formula, beta: Formula):
        """The pairs (premises, conclusion) that hold and fail in a counterexample."""
        consequent = Imp(alpha, Imp(alpha, beta)) if modified else Imp(alpha, beta)
        extended, discharged = (gamma.union([alpha]), beta), (gamma, consequent)
        return (extended, discharged) if forward else (discharged, extended)

    def claims(held: tuple, lost: tuple) -> list[dict]:
        return [cell.claim(*held, True), cell.claim(*lost, False)]

    probes = [
        (
            f"premise discharge fails: alpha = {render(alpha)}, beta = {render(beta)}"
            if forward
            else f"converse fails: alpha = beta = {render(alpha)}",
            claims(*instance(forward, FormulaSet(), alpha, beta)),
        )
        for forward, alpha, beta in _DT_CANDIDATES
        if forward in directions
    ]

    def draw(rng: random.Random, names: list[str]) -> list[dict]:
        gamma = _sample_set(rng, names, budget.depth, budget.gamma_size - 1)
        alpha = draw_formula(rng, names, budget.depth - 1)
        roll = rng.random()
        if roll < 0.4 and gamma:
            beta: Formula = rng.choice(list(gamma))
        elif roll < 0.7:
            beta = And(alpha, draw_formula(rng, names, 1))
        else:
            beta = draw_formula(rng, names, budget.depth - 1)
        for forward in directions:
            held, lost = instance(forward, gamma, alpha, beta)
            if cell.rel(*held) and not cell.rel(*lost):
                return claims(held, lost)
        return []

    return _sampled(cell, "sampled counterexample", draw, probes)


_CHECKERS: dict[PropertyId, Callable[[_Cell], Decision]] = {
    PropertyId.EXPLOSIVE: _check_explosive,
    PropertyId.JOINT_CONSISTENCY: _check_joint_consistency,
    PropertyId.CONJUNCTIVE_PROPERTY: _check_conjunctive,
    PropertyId.PARACONSISTENT: _check_paraconsistent,
    PropertyId.INCONSISTENT_SETS_EXIST: _check_inconsistent_sets,
    PropertyId.P_IDEMPOTENT: _check_p_idempotent,
    PropertyId.INCLUSION: _check_inclusion,
    PropertyId.MONOTONICITY: _check_monotonicity,
    PropertyId.IDEMPOTENCY: _check_cut,
    PropertyId.TRANSITIVITY: _check_cut,
    PropertyId.WEAK_TRANSITIVITY: _check_weak_transitivity,
    PropertyId.MODUS_PONENS: _check_modus_ponens,
    PropertyId.FULL_DT: _check_deduction,
    PropertyId.MODIFIED_FULL_DT: _check_deduction,
    PropertyId.WEAK_DT_FWD: _check_deduction,
    PropertyId.MODIFIED_WEAK_DT_FWD: _check_deduction,
}


def check_property(spec: LogicSpec, prop: PropertyId, budget: AuditBudget) -> Verdict:
    """Verdict for one (logic, property) cell; the only place verdicts are
    made, and every FAILS must carry a witness whose claims replay."""
    budget.validate()
    decided = _CHECKERS[prop](_Cell(spec, prop, budget))
    if decided.outcome is Outcome.FAILS:
        if decided.witness is None or not replay_witness(spec.matrix, decided.witness):
            raise AssertionError(
                f"FAILS verdict for {prop.value}/{spec.name} lacks a replayable witness"
            )
    return Verdict(prop, spec.name, bounds=budget.bounds, **vars(decided))


# ---------------------------------------------------------------------------
# The results grid


@dataclass
class AuditReport:
    """The grid's verdicts and discrepancies; `seconds` (each cell's time),
    `wall_s` and `workers` say how the run went and stay out of `to_json`."""

    budget: AuditBudget
    columns: tuple[str, ...]
    verdicts: dict[tuple[PropertyId, str], Verdict]
    discrepancies: list[dict] = field(default_factory=list)
    seconds: dict[tuple[PropertyId, str], float] = field(default_factory=dict, compare=False)
    wall_s: float = field(default=0.0, compare=False)
    workers: int = field(default=1, compare=False)

    def to_json(self) -> dict:
        grid = {
            f"{prop.value}/{col}": verdict.to_json()
            for (prop, col), verdict in self.verdicts.items()
        }
        return {
            "budget": asdict(self.budget),
            "columns": list(self.columns),
            "grid": grid,
            "discrepancies": self.discrepancies,
        }

    def format_text(self) -> str:
        label_width = max(len(ROW_LABELS[p]) for p in TABLE_ROWS) + 2
        col_width = 7
        lines = ["Summary of results", ""]
        header = " " * label_width + "".join(c.center(col_width) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        marks = {Outcome.HOLDS: "✓", Outcome.FAILS: "×", Outcome.UNDECIDED: "?"}
        flagged = {d["cell"] for d in self.discrepancies}
        for prop in TABLE_ROWS:
            row = ROW_LABELS[prop].ljust(label_width)
            for col in self.columns:
                mark = marks[self.verdicts[(prop, col)].outcome]
                if f"{prop.value}/{col}" in flagged:
                    mark += "*"
                row += mark.center(col_width)
            lines.append(row)
        lines.append("")
        lines.append("tick = holds, cross = fails; * marks a cell whose computed")
        lines.append("value differs from the published table (see discrepancies)")
        if self.discrepancies:
            lines.append("")
            lines.append("Discrepancies:")
            for d in self.discrepancies:
                tag = "known" if d["known"] else "UNEXPLAINED"
                lines.append(
                    f"  {d['cell']}: published={d['published']} computed={d['computed']} [{tag}]"
                )
        return "\n".join(lines)

    def unexpected_discrepancies(self) -> list[dict]:
        return [d for d in self.discrepancies if not d["known"]]


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _decide(
    cells: Sequence[tuple[LogicSpec, PropertyId]], budget: AuditBudget, todo: Iterable[int]
) -> Iterator[tuple[int, Verdict, float]]:
    """Decide the cells numbered in `todo`: (number, verdict, seconds taken)."""
    for i in todo:
        spec, prop = cells[i]
        started = time.perf_counter()
        verdict = check_property(spec, prop, budget)
        yield i, verdict, time.perf_counter() - started


def _work(
    cells: Sequence[tuple[LogicSpec, PropertyId]], budget: AuditBudget, tasks: int, sent: int
) -> NoReturn:
    """A forked worker: decide the cells whose numbers it reads from the pipe
    `tasks`, one byte each, until the pipe is empty, and write what `_decide`
    yielded, or the exception that stopped it, as one pickle to `sent`.  It
    leaves through `os._exit`, so it neither flushes the stdio buffers nor
    runs the exit hooks it inherited."""
    import pickle
    import signal

    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        try:
            todo = (byte[0] for byte in iter(lambda: os.read(tasks, 1), b""))
            payload = list(_decide(cells, budget, todo)), None
        except BaseException as exc:  # Ctrl-C too: the parent raises it again
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            payload = [], exc
        with open(sent, "wb") as out:
            pickle.dump(payload, out)
        status = 0
    finally:
        os._exit(status)


def _fork_join(
    cells: Sequence[tuple[LogicSpec, PropertyId]], budget: AuditBudget, workers: int
) -> list[tuple[int, Verdict, float]]:
    """Decide `cells` in `workers` forked processes, in no particular order.

    The workers pull cell numbers from one shared pipe, so one that drew
    cheap cells takes more, and each sends back its verdicts on a pipe of
    its own.  A cell that raises makes this raise the same exception, and
    a worker that dies makes it raise RuntimeError.  Every worker is reaped
    before this returns or raises.
    """
    import pickle
    import signal

    tasks, queue = os.pipe()
    os.write(queue, bytes(range(len(cells))))  # 96 bytes fit in any pipe's buffer
    os.close(queue)
    streams = []
    running: dict[int, BinaryIO] = {}  # pid -> the read end of its result pipe
    try:
        for _ in range(workers):
            got, sent = os.pipe()
            streams.append(open(got, "rb"))
            # SIGINT waits until the child is inside `_work`'s try and the
            # parent has its pid: a Ctrl-C in between would run the caller's
            # code in the child, or leave a child that nothing reaps
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _work(cells, budget, tasks, sent)
                running[pid] = streams[-1]
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
                os.close(sent)
        decided = []
        for pid, results in list(running.items()):
            payload = results.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[pid]
            if status < 0:
                raise RuntimeError(f"audit worker {pid} was killed by signal {-status}")
            if status > 0:
                raise RuntimeError(f"audit worker {pid} exited with status {status}")
            done, error = pickle.loads(payload)
            if error is not None:
                raise error
            decided += done
        return decided
    finally:
        os.close(tasks)
        for stream in streams:
            stream.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_table(budget: AuditBudget | None = None) -> AuditReport:
    """Compute all 96 grid cells and compare them to the published table.

    The cells are decided in one forked worker per CPU in the process's
    affinity; with one CPU, without `os.fork`, or while other threads run
    (a fork copies the locks they hold), in this process.
    """
    budget = budget or AuditBudget()
    budget.validate()
    columns = table_columns()
    grid = [
        (prop, spec, col, expected)
        for prop in TABLE_ROWS
        for spec, col, expected in zip(columns, COLUMN_NAMES, PUBLISHED_TABLE[prop])
    ]
    cells = [(spec, prop) for prop, spec, _, _ in grid]
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    workers = min(_cpu_count(), len(cells)) if can_fork else 1
    started = time.perf_counter()
    if workers == 1:
        decided = list(_decide(cells, budget, range(len(cells))))
    else:
        decided = _fork_join(cells, budget, workers)
    wall_s = time.perf_counter() - started
    decided.sort(key=lambda item: item[0])
    report = AuditReport(budget, COLUMN_NAMES, {}, wall_s=wall_s, workers=workers)
    for (prop, _, col, expected), (_, verdict, seconds) in zip(grid, decided, strict=True):
        report.verdicts[(prop, col)] = verdict
        report.seconds[(prop, col)] = seconds
        computed = {Outcome.HOLDS: True, Outcome.FAILS: False}.get(verdict.outcome)
        if computed != expected:
            report.discrepancies.append(
                {
                    "cell": f"{prop.value}/{col}",
                    "published": expected,
                    "computed": computed,
                    "evidence": verdict.witness,
                    "known": (prop, col) in KNOWN_DISCREPANCIES,
                }
            )
    return report


# ---------------------------------------------------------------------------
# Stored witness suites


@dataclass
class WitnessResult:
    description: str
    passed: bool
    claims: list[dict]


def _suite_l3() -> list[tuple[str, list[dict]]]:
    gamma = FormulaSet([P, Neg(P)])
    delta = FormulaSet([parse("p | q"), Neg(P)])
    not_self = NOT_SELF_IMP
    conv = Imp(not_self, Imp(not_self, not_self))
    return [
        ("explosion: {p, ~p} has no models and yields q",
         [claim_consistent(0, gamma, False), claim_entails(0, gamma, Q, True)]),
        ("~(p -> p) has no models and is a contradiction",
         [claim_consistent(0, FormulaSet([not_self]), False),
          {"kind": "classify", "alpha": render(not_self), "expected": "contradiction"}]),
        ("{p, ~p} does not para-yield q",
         [claim_entails(1, gamma, Q, False)]),
        ("{p, ~p} para-yields p | q and ~p",
         [claim_entails(1, gamma, parse("p | q"), True),
          claim_entails(1, gamma, Neg(P), True)]),
        ("{p | q, ~p} yields q",
         [claim_entails(0, delta, Q, True), claim_consistent(0, delta, True)]),
        ("inclusion failure: {~(p -> p)} does not para-yield itself",
         [claim_entails(1, FormulaSet([not_self]), not_self, False)]),
        ("consistent subsets of {p, ~p} are exactly {}, {p}, {~p}",
         [{"kind": "consistent_subsets", "gamma": _gamma_strs(gamma),
           "expected": [[], ["p"], ["~p"]]}]),
        ("joint consistency: {p}, {~p} consistent, {p, ~p} not",
         [claim_consistent(0, FormulaSet([P]), True),
          claim_consistent(0, FormulaSet([Neg(P)]), True),
          claim_consistent(0, gamma, False)]),
        ("modified deduction: forward and converse instances",
         [claim_entails(0, FormulaSet([Q, P]), And(P, Q), True),
          claim_entails(0, FormulaSet([Q]), Imp(P, Imp(P, And(P, Q))), True),
          claim_entails(0, FormulaSet(), Imp(P, Imp(P, P)), True),
          claim_entails(0, FormulaSet([P]), P, True)]),
        ("modified-deduction converse counterexample with alpha = beta = ~(p -> p)",
         [claim_entails(1, FormulaSet(), conv, True),
          claim_entails(0, FormulaSet(), conv, True),
          claim_entails(1, FormulaSet([not_self]), not_self, False)]),
        ("transitivity failure: q escapes {p, ~p} though each stage holds",
         [claim_entails(1, gamma, parse("p | q"), True),
          claim_entails(1, delta, Q, True),
          claim_entails(1, gamma, Q, False)]),
    ]


def _suite_g3() -> list[tuple[str, list[dict]]]:
    contradiction = P_AND_NOT_P
    taut = Imp(contradiction, contradiction)
    return [
        ("p & ~p is a contradiction",
         [{"kind": "classify", "alpha": render(contradiction), "expected": "contradiction"}]),
        ("negation of the middle value is 0",
         [{"kind": "eval", "valuation": {"p": "1/2"}, "formula": "~p", "expected": "0"}]),
        ("(p & ~p) -> (p & ~p) is a tautology",
         [claim_entails(0, FormulaSet(), taut, True)]),
        ("inclusion failure: {p & ~p} does not para-yield itself",
         [claim_entails(1, FormulaSet([contradiction]), contradiction, False)]),
        ("full deduction instances",
         [claim_entails(0, FormulaSet([Q, P]), And(P, Q), True),
          claim_entails(0, FormulaSet([Q]), Imp(P, And(P, Q)), True),
          claim_entails(0, FormulaSet(), Imp(P, P), True),
          claim_entails(0, FormulaSet([P]), P, True)]),
        ("weak-deduction converse failure for the transformed logic",
         [claim_entails(1, FormulaSet(), taut, True),
          claim_entails(1, FormulaSet([contradiction]), contradiction, False)]),
    ]


def _suite_k3() -> list[tuple[str, list[dict]]]:
    contradiction = P_AND_NOT_P
    gamma = FormulaSet([P, Neg(P)])
    delta = FormulaSet([parse("p | q"), Neg(P)])
    return [
        ("p -> p is not a tautology",
         [claim_entails(0, FormulaSet(), Imp(P, P), False),
          {"kind": "eval", "valuation": {"p": "1/2"}, "formula": "p -> p",
           "expected": "1/2"}]),
        ("no tautologies: the empty set has no consequences",
         [claim_entails(0, FormulaSet(), parse("p | ~p"), False),
          claim_entails(0, FormulaSet(), parse("~(p & ~p)"), False),
          claim_entails(0, FormulaSet(), parse("q -> q"), False),
          {"kind": "tautology_free", "letters": ["p", "q"], "depth": 2,
           "expected": True}]),
        ("the unique consistent subset of {p & ~p} is the empty set",
         [{"kind": "consistent_subsets", "gamma": [render(contradiction)],
           "expected": [[]]}]),
        ("inclusion failure: {p & ~p} does not para-yield itself",
         [claim_entails(1, FormulaSet([contradiction]), contradiction, False)]),
        ("transitivity failure transfers: stages hold but q escapes {p, ~p}",
         [claim_entails(1, delta, Q, True),
          claim_entails(1, gamma, parse("p | q"), True),
          claim_entails(1, gamma, parse("p | ~p"), True),
          claim_entails(1, gamma, Q, False)]),
    ]


_SUITES = {"L3": _suite_l3, "G3": _suite_g3, "K3": _suite_k3}


def verify_witness_suite(spec: LogicSpec) -> list[WitnessResult]:
    """Replay every stored counterexample for the given system."""
    suite = _SUITES.get(spec.matrix.name)
    if suite is None:
        raise ValueError(f"no stored witness suite for {spec.matrix.name!r}")
    return [
        WitnessResult(description, replay_claims(spec.matrix, claims), claims)
        for description, claims in suite()
    ]
