"""Metalogic property auditor.

Checks sixteen structural properties (explosion, joint consistency,
Tarskian axioms, deduction-theorem variants, ...) for the three-valued
systems and their paraconsistent transforms, producing a 16x6 results grid.

Each row is a checker in ``_CHECKERS``: given the ``_Cell`` to decide, it
returns a ``Decision``, and ``check_property`` makes the ``Verdict`` after
replaying every claim of its witness; a FAILS must carry at least one.
A claim is replayed from its text alone: within one run (a ``run_table``, a
``verify_witness_suite`` or a standalone ``check_property``) each distinct
claim is recomputed from its text once per matrix, and each distinct text
is parsed once (``_ReplayScope``); its expected answer is then compared at
every replay.
Rows that follow from the definition of matrix consequence (Łoś and
Suszko 1958; Wójcicki 1988), in every matrix or given a two-letter check of
its tables, are decided exactly by ``_lemma``, with that check as claims;
the transforms' loss of the conjunctive property is refuted exactly the same
way (``_refute_conjunctive``).  The transforms' rows of explosion, inclusion,
idempotency, transitivity and modus ponens are decided by a stored two-letter
witness alone (``_stored_witness``): FAILS when its claims replay, UNDECIDED
when they do not.  The deduction-theorem rows try their stored witnesses,
then exact arguments on the tables (``_dt_argument``): the base converse by
one detachment claim, premise discharge by endomorphisms of the algebra
that keep the designated values designated, lifted to the transforms by one
claim, or refuted by two one-letter terms.  Base joint consistency tries
x = p, then the one-letter terms (``_one_letter_terms``).  The searches run
up to four values (``_SEARCH_CAP``); what they leave undecided is UNDECIDED,
with the reason in its notes.  Every cell is compared against the expected
published value and mismatches are listed with their evidence instead of
being silently corrected.

``run_table`` decides the 96 cells one after another in the calling
process.  The stored witness suites (``verify_witness_suite``) replay the
claims of the grid's own witnesses for L3, G3 and K3 and their transforms.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from functools import partial
from itertools import product
from typing import Callable, Iterator, Sequence

from .formula import And, Formula, FormulaSet, Imp, Letter, Neg, Or, parse, render
from .matrix import Matrix, builtin, format_value, has_star_property
from .para import LogicSpec, is_para_consistent, logic_entails
from .semantics import entails, is_consistent


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
    BOUNDED = "BOUNDED"


@dataclass(frozen=True)
class AuditBudget:
    """The run's settings, reported in its JSON; no verdict depends on them."""

    seed: int = 0


@dataclass
class Verdict:
    property: PropertyId
    logic_name: str
    outcome: Outcome
    method: Method
    witness: dict | None
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "property": self.property.value,
            "logic": self.logic_name,
            "outcome": self.outcome.value,
            "method": self.method.value,
            "witness": self.witness,
            "notes": self.notes,
        }


@dataclass
class Decision:
    """A checker's verdict; ``check_property`` adds property and logic."""

    outcome: Outcome
    method: Method
    witness: dict | None = None
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


# the fields each claim kind names besides `kind` and `expected`
_CLAIM_FIELDS = {
    "entails": ("gamma", "alpha"),
    "para_entails": ("gamma", "alpha"),
    "consistent": ("gamma",),
    "para_consistent": ("gamma",),
    "star_property": (),
}


def _question(claim: dict) -> tuple[str, list[str] | None, str | None]:
    """A claim's question, (kind, gamma texts, alpha text), without its
    expected answer; a malformed claim raises a ValueError naming the field."""
    kind = claim.get("kind")
    fields = _CLAIM_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ValueError(f"unknown claim kind: {kind!r}")
    if not isinstance(claim.get("expected"), bool):
        raise ValueError(f"{kind} claim field 'expected' must be a bool")
    if not fields:
        return kind, None, None
    gamma = claim.get("gamma")
    if not isinstance(gamma, list):
        raise ValueError(f"{kind} claim field 'gamma' must be a list of strings")
    for text in gamma:  # a loop, not all(...): this runs on every replay
        if not isinstance(text, str):
            raise ValueError(f"{kind} claim field 'gamma' must be a list of strings")
    if "alpha" not in fields:
        return kind, gamma, None
    alpha = claim.get("alpha")
    if not isinstance(alpha, str):
        raise ValueError(f"{kind} claim field 'alpha' must be a string")
    return kind, gamma, alpha


def _answer(
    m: Matrix,
    kind: str,
    gamma: Sequence[str] | None,
    alpha: str | None,
    read: Callable[[str], Formula],
) -> bool:
    """The semantics' answer to a claim's question, its texts read by `read`."""
    if kind == "star_property":
        return has_star_property(m)
    premises = FormulaSet(read(s) for s in gamma)
    if kind == "consistent":
        return is_consistent(m, premises)
    if kind == "para_consistent":
        return is_para_consistent(m, premises)
    depth = 0 if kind == "entails" else 1
    return logic_entails(LogicSpec(m, depth), premises, read(alpha))


class _ReplayScope:
    """One run's replays: each distinct question is answered once per matrix
    and each distinct text parsed once.  Only parsing and answering claim
    text fills it.  Questions are keyed by the matrix's `id`, and the scope
    holds every matrix it keys, so no id is reused while it is open."""

    def __init__(self) -> None:
        self.matrices: dict[int, Matrix] = {}
        self.answers: dict[tuple, bool] = {}
        self.formulas: dict[str, Formula] = {}
        self.replayed = 0

    def read(self, text: str) -> Formula:
        formula = self.formulas.get(text)
        if formula is None:
            formula = self.formulas[text] = parse(text)
        return formula

    def answer(self, m: Matrix, kind: str, gamma: list[str] | None, alpha: str | None) -> bool:
        self.replayed += 1
        key = (id(m), kind, None if gamma is None else tuple(gamma), alpha)
        got = self.answers.get(key)
        if got is None:
            got = _answer(m, kind, gamma, alpha, self.read)
            self.matrices[id(m)] = m
            self.answers[key] = got
        return got


_SCOPE: ContextVar[_ReplayScope | None] = ContextVar("replay_scope", default=None)


@contextmanager
def _replaying(scope: _ReplayScope) -> Iterator[_ReplayScope]:
    """Answer every replay through `scope` until the block ends."""
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def replay_claim(m: Matrix, claim: dict) -> bool:
    """Recompute a claim from its text against the semantics and report
    whether it matches.  Inside a replay scope (``run_table``,
    ``verify_witness_suite``, ``check_property``) each distinct claim is
    answered once per matrix; outside one, every call recomputes."""
    kind, gamma, alpha = _question(claim)
    scope = _SCOPE.get()
    if scope is None:
        got = _answer(m, kind, gamma, alpha, parse)
    else:
        got = scope.answer(m, kind, gamma, alpha)
    return got == claim["expected"]


def replay_claims(m: Matrix, claims: Sequence[dict]) -> bool:
    return all(replay_claim(m, claim) for claim in claims)


def replay_witness(m: Matrix, witness: dict) -> bool:
    return replay_claims(m, witness.get("claims", ()))


# ---------------------------------------------------------------------------
# The checker form: stored witnesses and lemmas

P, Q = Letter("p"), Letter("q")
NOT_SELF_IMP = parse("~(p -> p)")  # unsatisfiable wherever 1 is the sole designated value
P_AND_NOT_P = parse("p & ~p")


@dataclass(frozen=True)
class _Cell:
    """One grid cell under audit: a column logic and a row."""

    spec: LogicSpec
    prop: PropertyId

    def rel(self, gamma: FormulaSet, alpha: Formula) -> bool:
        """The column's consequence relation."""
        return logic_entails(self.spec, gamma, alpha)

    def claim(self, gamma: FormulaSet, alpha: Formula, expected: bool) -> dict:
        """A replayable claim about the column's consequence relation."""
        return claim_entails(self.spec.para_depth, gamma, alpha, expected)

    def yields_but_not_q(self, gamma: FormulaSet, held: Sequence[Formula]) -> list[dict]:
        """Claims that `gamma` yields each formula of `held`, but not q."""
        return [*(self.claim(gamma, f, True) for f in held), self.claim(gamma, Q, False)]


def _stored_witness(cell: _Cell, probes: Sequence[tuple[str, list[dict]]]) -> Decision:
    """FAILS by the first stored witness, a (description, claims) pair, whose
    claims all replay; UNDECIDED when none does."""
    for description, claims in probes:
        if replay_claims(cell.spec.matrix, claims):
            witness = {"description": description, "claims": claims}
            return Decision(Outcome.FAILS, Method.WITNESS, witness)
    return Decision(
        Outcome.UNDECIDED,
        Method.WITNESS,
        notes="stored witness did not demonstrate a failure for this matrix",
    )


def _lemma(description: str, claims: Sequence[dict] = ()) -> Decision:
    """HOLDS exactly, by an argument valid in every matrix; `claims` are the
    facts about this matrix that the argument rests on."""
    witness = {"description": description, "claims": list(claims)}
    return Decision(Outcome.HOLDS, Method.EXACT, witness)


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
            return _lemma(
                "negation maps designated values outside the designated set; "
                "a set yielding x and ~x has no models",
                [
                    {"kind": "star_property", "expected": True},
                    claim_consistent(0, pair, False),
                    claim_entails(0, pair, Q, True),
                ],
            )
        return Decision(
            Outcome.UNDECIDED,
            Method.BOUNDED,
            notes="matrix lacks the negation condition; no exact argument available",
        )
    claims = cell.yields_but_not_q(pair, [P, Neg(P)])
    stored = "{p, ~p} yields both p and ~p but not q, so it is not inconsistent"
    return _stored_witness(cell, [(stored, claims)])


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
    m, x = cell.spec.matrix, P
    if not replay_claims(m, _joint_claims(P)):
        # then the one-letter terms, each decided by its values over p = 0..n-1
        n, d, neg = len(m.values), set(m.designated_ix), m.neg_ix
        terms = _one_letter_terms(m) if n**n <= _SEARCH_CAP else {}
        x = next(
            (
                f
                for u, f in terms.items()
                if not d.isdisjoint(u)
                and any(neg[a] in d for a in u)
                and not any(a in d and neg[a] in d for a in u)
            ),
            None,
        )
    if x is None:
        return Decision(
            Outcome.UNDECIDED,
            Method.BOUNDED,
            notes="no witness x among p and the one-letter terms, which are searched "
            "up to four values; formulas in more letters are not searched",
        )
    witness = {"description": f"witness x = {render(x)}", "claims": _joint_claims(x)}
    return Decision(Outcome.HOLDS, Method.WITNESS, witness)


def _joint_claims(x: Formula) -> list[dict]:
    """Claims that {x} and {~x} are consistent and {x, ~x} is not."""
    return [
        claim_consistent(0, FormulaSet([x]), True),
        claim_consistent(0, FormulaSet([Neg(x)]), True),
        claim_consistent(0, FormulaSet([x, Neg(x)]), False),
    ]


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
        return _refute_conjunctive(cell)
    conjunction = FormulaSet([And(P, Q)])
    claims = [
        cell.claim(FormulaSet([P, Q]), And(P, Q), True),
        cell.claim(conjunction, P, True),
        cell.claim(conjunction, Q, True),
    ]
    if replay_claims(cell.spec.matrix, claims):
        return _lemma(
            "x & y is designated exactly when x and y are, so z = x & y and "
            "{x, y} have the same models and the same consequences",
            claims,
        )
    return Decision(
        Outcome.UNDECIDED,
        Method.BOUNDED,
        notes="& is not designated exactly when both conjuncts are; "
        "no exact argument available, and other combiners are not searched",
    )


def _refute_conjunctive(cell: _Cell) -> Decision:
    """The transform loses the conjunctive property: {p, ~p} yields p|q and
    ~p|q but not q, and no single formula z does the same.

    {z} has the subsets {} and {z}.  A consistent {z} therefore yields what z
    yields in the base logic, and z yields q once it yields p|q and ~p|q.  An
    inconsistent {z} yields only the tautologies, and p|q is not one.  This
    covers every z, of any depth and over any letters.
    """
    pair = FormulaSet([P, Neg(P)])
    p_or_q, not_p_or_q = parse("p | q"), parse("~p | q")
    claims = [
        cell.claim(pair, p_or_q, True),
        cell.claim(pair, not_p_or_q, True),
        cell.claim(pair, Q, False),
        claim_entails(0, FormulaSet([p_or_q, not_p_or_q]), Q, True),
        claim_entails(0, FormulaSet(), p_or_q, False),
    ]
    if replay_claims(cell.spec.matrix, claims):
        witness = {
            "description": "for x = p, y = ~p: {x, y} yields p|q and ~p|q but not "
            "q; a consistent {z} yields what z yields, which includes q once it "
            "includes p|q and ~p|q, and an inconsistent {z} yields only the "
            "tautologies, which p|q is not",
            "claims": claims,
        }
        return Decision(Outcome.FAILS, Method.EXACT, witness)
    return Decision(
        Outcome.UNDECIDED,
        Method.BOUNDED,
        notes="the two-letter premises of the refutation do not hold for this "
        "matrix; no exact argument available, and no formula is searched",
    )


def _check_p_idempotent(cell: _Cell) -> Decision:
    return _lemma(
        "the designated set is proper, so by the fresh-letter argument every "
        "finite set is consistent under the transform; the second transform "
        "then draws on every subset, and by monotonicity of the first one a "
        "subset yields no more than the whole set, so depth 2 answers as depth 1"
    )


_INCLUSION_CANDIDATES = (NOT_SELF_IMP, P_AND_NOT_P)


def _check_inclusion(cell: _Cell) -> Decision:
    if cell.spec.para_depth == 0:
        return _lemma("every model of a set designates each of its members")
    probes = []
    for w in _INCLUSION_CANDIDATES:
        single = FormulaSet([w])
        claims = [claim_consistent(0, single, False), cell.claim(single, w, False)]
        probes.append((f"{{{render(w)}}} does not yield itself", claims))
    return _stored_witness(cell, probes)


def _check_monotonicity(cell: _Cell) -> Decision:
    if cell.spec.para_depth == 0:
        return _lemma("every model of a larger set is a model of the smaller one")
    return _lemma(
        "a consistent subset of a set is a consistent subset of every larger "
        "set, and yields the same there"
    )


# the stored witness's description per row
_CUT_DESCRIPTIONS = {
    PropertyId.IDEMPOTENCY: (
        "p|q and ~p are consequences of {p, ~p}, and q follows from them, "
        "but q is not a consequence of {p, ~p}"
    ),
    PropertyId.TRANSITIVITY: (
        "every member of {p|q, ~p} follows from {p, ~p} and q follows "
        "from {p|q, ~p}, yet q does not follow from {p, ~p}"
    ),
}


def _check_cut(cell: _Cell) -> Decision:
    """Idempotency and transitivity, which both chain consequences."""
    if cell.spec.para_depth == 0:
        return _lemma(
            "a model of a set designates each of its consequences, so it is a "
            "model of any set of them and designates what that set yields"
        )
    # {p, ~p} yields p|q and ~p, which yield q; {p, ~p} does not
    pair, chain = FormulaSet([P, Neg(P)]), FormulaSet([parse("p | q"), Neg(P)])
    claims = [
        cell.claim(pair, parse("p | q"), True),
        cell.claim(pair, Neg(P), True),
        cell.claim(chain, Q, True),
        cell.claim(pair, Q, False),
    ]
    return _stored_witness(cell, [(_CUT_DESCRIPTIONS[cell.prop], claims)])


def _check_weak_transitivity(cell: _Cell) -> Decision:
    if cell.spec.para_depth == 0:
        return _lemma("a model of {a} designates b, so it is a model of {b} and designates c")
    return _lemma(
        "the transform of {a} yields what a yields when {a} is consistent, "
        "and only the tautologies otherwise; a consistent {a} makes {b} "
        "consistent, and a tautology b yields only tautologies"
    )


_MP_READING = "read as the closure rule: a, a->b in Cn(G) imply b in Cn(G)"


def _check_modus_ponens(cell: _Cell) -> Decision:
    """Modus ponens read as a closure rule: if a and a->b are consequences of a
    set, then so is b."""
    decided = _check_detachment(cell) if cell.spec.para_depth == 0 else _refute_mp(cell)
    decided.notes = "; ".join(filter(None, (_MP_READING, decided.notes)))
    return decided


def _check_detachment(cell: _Cell) -> Decision:
    """The base logic is closed under detachment exactly when its implication
    table detaches: x and x -> y designated make y designated."""
    pair = FormulaSet([P, Imp(P, Q)])
    if cell.rel(pair, Q):
        return _lemma(
            "the implication table detaches, so every model of a set that "
            "designates a and a -> b designates b",
            [cell.claim(pair, Q, True)],
        )
    witness = {
        "description": "the implication table does not detach: a valuation "
        "designates p and p -> q but not q",
        "claims": cell.yields_but_not_q(pair, [P, Imp(P, Q)]),
    }
    return Decision(Outcome.FAILS, Method.EXACT, witness)


def _refute_mp(cell: _Cell) -> Decision:
    """The transform is not closed under detachment, by a stored witness; the
    second needs no conjunction, for a matrix whose & is not one."""
    probes = []
    for text in ("p, ~p & (p -> q)", "p, ~p"):
        claims = cell.yields_but_not_q(FormulaSet.from_text(text), [P, Imp(P, Q)])
        probes.append((f"{{{text}}} yields p and p -> q but not q", claims))
    return _stored_witness(cell, probes)


# Stored instances (forward?, alpha, beta) over the empty premise set; the
# converse ones apply to the biconditional rows only.
_DT_CANDIDATES = (
    (True, P, P),
    (True, P, parse("~(p -> ~p)")),
    (True, P_AND_NOT_P, Q),
    (False, NOT_SELF_IMP, NOT_SELF_IMP),
    (False, P_AND_NOT_P, P_AND_NOT_P),
)


_MODIFIED_ROWS = (PropertyId.MODIFIED_FULL_DT, PropertyId.MODIFIED_WEAK_DT_FWD)
# each biconditional row and the row of its forward direction
_FORWARD_ROWS = {
    PropertyId.FULL_DT: PropertyId.WEAK_DT_FWD,
    PropertyId.MODIFIED_FULL_DT: PropertyId.MODIFIED_WEAK_DT_FWD,
}

# The exact deduction-theorem arguments and base joint consistency search the
# maps V -> V and the one-letter term functions, vectors in V^V: at most
# |V|^|V| of each, so they run only while that is at most this, up to four values.
_SEARCH_CAP = 256


def _consequent(cell: _Cell, alpha: Formula, beta: Formula) -> Formula:
    """alpha -> beta, or alpha -> (alpha -> beta) in the modified rows."""
    return Imp(alpha, Imp(alpha, beta)) if cell.prop in _MODIFIED_ROWS else Imp(alpha, beta)


def _dt_claims(
    cell: _Cell, forward: bool, gamma: FormulaSet, alpha: Formula, beta: Formula
) -> list[dict]:
    """The claims of a counterexample to premise discharge or to its converse:
    the pair (premises, conclusion) that holds, then the one that fails."""
    extended = (gamma.union([alpha]), beta)
    discharged = (gamma, _consequent(cell, alpha, beta))
    held, lost = (extended, discharged) if forward else (discharged, extended)
    return [cell.claim(*held, True), cell.claim(*lost, False)]


def _undecided(notes: str) -> Decision:
    return Decision(Outcome.UNDECIDED, Method.EXACT, notes=notes)


def _endomorphisms(m: Matrix) -> list[tuple[int, ...]]:
    """The maps h of the value indices, the identity first, that commute with
    every connective and keep the designated values designated."""
    n, designated = len(m.values), set(m.designated_ix)
    identity = tuple(range(n))
    return [identity] + [
        h
        for h in product(identity, repeat=n)
        if h != identity
        and designated.issuperset(h[x] for x in designated)
        and all(h[m.neg_ix[x]] == m.neg_ix[h[x]] for x in identity)
        and all(
            h[t[x][y]] == t[h[x]][h[y]]
            for t in (m.or_ix, m.and_ix, m.imp_ix)
            for x in identity
            for y in identity
        )
    ]


def _discharging_maps(m: Matrix, d: set[int], c: list[list[int]]) -> list[tuple[int, ...]] | None:
    """For each pair of values x, y with c(x, y) not in `d`, the first
    endomorphism h that makes h(x) designated and h(y) not; None when a pair
    has none.  If v designates gamma but not c(alpha, beta), the map for
    (v(alpha), v(beta)) turns v into a valuation that designates gamma and
    alpha but not beta, so the maps prove premise discharge."""
    maps, used = _endomorphisms(m), set()
    for x, y in product(range(len(m.values)), repeat=2):
        if c[x][y] not in d:
            h = next((h for h in maps if h[x] in d and h[y] not in d), None)
            if h is None:
                return None
            used.add(h)
    return [h for h in maps if h in used]


def _one_letter_terms(m: Matrix) -> dict[tuple[int, ...], Formula]:
    """The functions of p that formulas define, closed from p level by level,
    as value vectors over p = 0..n-1, each with a formula of least depth."""
    terms: dict[tuple[int, ...], Formula] = {tuple(range(len(m.values))): P}
    level = dict(terms)
    ops = ((Or, m.or_ix), (And, m.and_ix), (Imp, m.imp_ix))
    while level:
        made: dict[tuple[int, ...], tuple] = {}
        for u, f in level.items():
            made.setdefault(tuple(m.neg_ix[a] for a in u), (Neg, f))
            for w, g in terms.items():
                for op, t in ops:
                    made.setdefault(tuple(t[a][b] for a, b in zip(u, w)), (op, f, g))
                    made.setdefault(tuple(t[b][a] for a, b in zip(u, w)), (op, g, f))
        level = {v: op(*args) for v, (op, *args) in made.items() if v not in terms}
        terms.update(level)
    return terms


def _one_letter_refutation(
    m: Matrix, d: set[int], c: list[list[int]]
) -> tuple[Formula, Formula] | None:
    """Formulas s, t in p, s satisfiable, such that {s} yields t but c(s, t)
    is not designated everywhere: a counterexample to premise discharge, also
    under the transform, where the consistent {s} yields what s yields."""
    terms = _one_letter_terms(m)
    for s, alpha in terms.items():
        if d.isdisjoint(s):
            continue
        for t, beta in terms.items():
            pairs = list(zip(s, t))
            yields = all(y in d for x, y in pairs if x in d)
            if yields and any(c[x][y] not in d for x, y in pairs):
                return alpha, beta
    return None


def _write_map(m: Matrix, h: tuple[int, ...]) -> str:
    """`h` as "h(0, 1/2, 1) = (0, 1, 1)": the values, then their images."""
    images = ", ".join(format_value(m.values[i]) for i in h)
    return f"h({', '.join(map(format_value, m.values))}) = ({images})"


def _dt_converse(cell: _Cell) -> Decision:
    """The converse, gamma yielding c(alpha, beta) only if gamma with alpha
    yields beta, in the base column: it holds, by substitution, exactly when
    {p, c(p, q)} yields q, and otherwise {c(p, q)} with alpha = p, beta = q
    refutes it."""
    if cell.spec.para_depth:
        return _undecided("no exact argument decides the converse under the transform")
    c = _consequent(cell, P, Q)
    if cell.rel(FormulaSet([P, c]), Q):
        return _lemma(
            f"converse holds: {{p, {render(c)}}} yields q, so by substitution "
            f"{{alpha, {render(_consequent(cell, Letter('alpha'), Letter('beta')))}}} "
            "yields beta",
            [cell.claim(FormulaSet([P, c]), Q, True)],
        )
    witness = {
        "description": f"converse fails: gamma = {{{render(c)}}}, alpha = p, beta = q",
        "claims": _dt_claims(cell, False, FormulaSet([c]), P, Q),
    }
    return Decision(Outcome.FAILS, Method.EXACT, witness)


def _dt_argument(cell: _Cell) -> Decision:
    """The row decided by exact arguments, or UNDECIDED with the reason in its
    notes.

    A biconditional row takes its converse from `_dt_converse` and its
    forward direction from its "(=>)" row's decision, so it never holds
    where that row fails, and is UNDECIDED where either half is.  Forward,
    base column: by `_discharging_maps`.  Forward, transform: when the base
    logic discharges premises and {q} yields c(p, q), a consistent subset of
    gamma with alpha that yields beta either leaves alpha out, and yields
    c(alpha, beta) through beta, or is a consistent subset of gamma with
    alpha added, where the base discharge applies.  Where no maps discharge
    premises, two one-letter terms may refute it in either column
    (`_one_letter_refutation`).
    """
    m, para = cell.spec.matrix, cell.spec.para_depth
    forward_row = _FORWARD_ROWS.get(cell.prop)
    if forward_row is not None:
        converse = _dt_converse(cell)
        if converse.outcome is Outcome.FAILS:
            return converse
        forward = _check_deduction(replace(cell, prop=forward_row))
        if forward.outcome is Outcome.FAILS:
            return forward
        undecided = [h.notes for h in (converse, forward) if h.outcome is Outcome.UNDECIDED]
        if undecided:
            return _undecided("; ".join(undecided))
        parts = [w for w in (converse.witness, forward.witness) if w]
        witness = {
            "description": "; ".join(w["description"] for w in parts),
            "claims": [claim for w in parts for claim in w["claims"]],
        }
        return replace(forward, witness=witness)
    n = len(m.values)
    if n**n > _SEARCH_CAP:
        return _undecided(
            f"{n}^{n} value maps exceed the search cap of {_SEARCH_CAP}, "
            "so no exact argument is tried"
        )
    imp, d = m.imp_ix, set(m.designated_ix)
    modified = cell.prop in _MODIFIED_ROWS
    c = [[imp[x][imp[x][y]] if modified else imp[x][y] for y in range(n)] for x in range(n)]
    maps = _discharging_maps(m, d, c)
    if maps is not None:
        consequent = render(_consequent(cell, Letter("x"), Letter("y")))
        described = (
            f"premise discharge holds: wherever {consequent} is undesignated, one "
            "of these endomorphisms keeps the designated values designated and "
            f"makes x designated and y not: {'; '.join(_write_map(m, h) for h in maps)}"
        )
        if not para:
            return _lemma(described)
        lift = FormulaSet([Q]), _consequent(cell, P, Q)
        if entails(m, *lift).holds:
            return _lemma(
                f"{described}; {{q}} yields {render(lift[1])}, so this lifts to the transform",
                [claim_entails(0, *lift, True)],
            )
        return _undecided(
            f"the base logic discharges premises, but {{q}} does not yield "
            f"{render(lift[1])}, so no exact argument lifts that to the transform"
        )
    refuted = _one_letter_refutation(m, d, c)
    if refuted is None:
        return _undecided("no endomorphisms discharge premises and no one-letter terms refute it")
    alpha, beta = refuted
    witness = {
        "description": f"premise discharge fails: alpha = {render(alpha)}, beta = {render(beta)}",
        "claims": _dt_claims(cell, True, FormulaSet(), alpha, beta),
    }
    return Decision(Outcome.FAILS, Method.EXACT, witness)


def _check_deduction(cell: _Cell) -> Decision:
    """One of the four deduction-theorem rows.

    The "full" variants are biconditionals; the "(=>)" variants only assert
    the forward direction (premise discharge).  Stored counterexample
    candidates are tried first, then the exact arguments of `_dt_argument`.
    """
    directions = (True, False) if cell.prop in _FORWARD_ROWS else (True,)
    probes = [
        (
            f"premise discharge fails: alpha = {render(alpha)}, beta = {render(beta)}"
            if forward
            else f"converse fails: alpha = beta = {render(alpha)}",
            _dt_claims(cell, forward, FormulaSet(), alpha, beta),
        )
        for forward, alpha, beta in _DT_CANDIDATES
        if forward in directions
    ]
    found = _stored_witness(cell, probes)
    return found if found.outcome is Outcome.FAILS else _dt_argument(cell)


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


def check_property(spec: LogicSpec, prop: PropertyId) -> Verdict:
    """Verdict for one (logic, property) cell; the only place verdicts are
    made.  Every claim of a witness must replay, whatever the outcome, and a
    FAILS must carry at least one claim.  Outside a run's replay scope the
    cell opens its own, so the checker's replays and the gate's share answers."""
    with _replaying(_SCOPE.get() or _ReplayScope()):
        decided = _CHECKERS[prop](_Cell(spec, prop))
        witness = decided.witness
        unproven = decided.outcome is Outcome.FAILS and not (witness and witness["claims"])
        if unproven or (witness is not None and not replay_witness(spec.matrix, witness)):
            raise AssertionError(
                f"{decided.outcome.value} verdict for {prop.value}/{spec.name} "
                "lacks a replayable witness"
            )
    return Verdict(prop, spec.name, **vars(decided))


# ---------------------------------------------------------------------------
# The results grid


@dataclass
class AuditReport:
    """The grid's verdicts and discrepancies.  `seconds` (each cell's time),
    `wall_s`, `claims_replayed` and `claims_answered` (the distinct claims
    among them, each recomputed once) say how the run went and stay out of
    `to_json`."""

    budget: AuditBudget
    columns: tuple[str, ...]
    verdicts: dict[tuple[PropertyId, str], Verdict]
    discrepancies: list[dict] = field(default_factory=list)
    seconds: dict[tuple[PropertyId, str], float] = field(default_factory=dict, compare=False)
    wall_s: float = field(default=0.0, compare=False)
    claims_replayed: int = field(default=0, compare=False)
    claims_answered: int = field(default=0, compare=False)

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


def run_table(budget: AuditBudget | None = None) -> AuditReport:
    """Compute all 96 grid cells, in this process and in grid order, and
    compare them to the published table.  The run has its own replay scope;
    `budget` is only reported."""
    report = AuditReport(budget or AuditBudget(), COLUMN_NAMES, {})
    columns = table_columns()
    started = time.perf_counter()
    with _replaying(_ReplayScope()) as scope:
        for prop in TABLE_ROWS:
            for spec, col, expected in zip(columns, COLUMN_NAMES, PUBLISHED_TABLE[prop]):
                cell_started = time.perf_counter()
                verdict = check_property(spec, prop)
                report.seconds[(prop, col)] = time.perf_counter() - cell_started
                report.verdicts[(prop, col)] = verdict
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
    report.wall_s = time.perf_counter() - started
    report.claims_replayed = scope.replayed
    report.claims_answered = len(scope.answers)
    return report


# ---------------------------------------------------------------------------
# Stored witness suites


@dataclass
class WitnessResult:
    description: str
    passed: bool
    claims: list[dict]


def _grid_witnesses(name: str) -> list[tuple[str, list[dict]]]:
    """The (description, claims) pair of every witness with claims in the
    grid columns of the matrix `name` and its transform."""
    pairs = []
    for spec in table_columns():
        if spec.matrix.name != name:
            continue
        for prop in TABLE_ROWS:
            witness = check_property(spec, prop).witness
            if witness and witness["claims"]:
                description = f"{prop.value}/{spec.name}: {witness['description']}"
                pairs.append((description, witness["claims"]))
    return pairs


_SUITES = {name: partial(_grid_witnesses, name) for name in ("L3", "G3", "K3")}


def verify_witness_suite(spec: LogicSpec) -> list[WitnessResult]:
    """Replay every stored witness of the grid columns of the given system,
    in one replay scope."""
    suite = _SUITES.get(spec.matrix.name)
    if suite is None:
        raise ValueError(f"no stored witness suite for {spec.matrix.name!r}")
    with _replaying(_ReplayScope()):
        return [
            WitnessResult(description, replay_claims(spec.matrix, claims), claims)
            for description, claims in suite()
        ]
