"""Matrix semantics: valuations, evaluation, models, entailment, classification."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

from .formula import And, Formula, FormulaSet, Letter, Neg, Or
from .matrix import MAX_VALUES, Matrix, Value

Valuation = dict[str, Value]


class EvaluationError(ValueError):
    """A formula mentions a letter the valuation does not assign."""


def evaluate(m: Matrix, valuation: Valuation, f: Formula) -> Value:
    """Recursive truth value of `f` under `valuation` in matrix `m`."""
    if isinstance(f, Letter):
        try:
            return valuation[f.name]
        except KeyError:
            raise EvaluationError(f"unassigned letter: {f.name}") from None
    if isinstance(f, Neg):
        return m.neg[evaluate(m, valuation, f.child)]
    left = evaluate(m, valuation, f.left)
    right = evaluate(m, valuation, f.right)
    if isinstance(f, Or):
        return m.or_[(left, right)]
    if isinstance(f, And):
        return m.and_[(left, right)]
    return m.imp[(left, right)]


def valuations(m: Matrix, names: Iterable[str]) -> Iterator[Valuation]:
    """All |values|^|names| valuations over `names`, in a fixed order.

    Letters iterate lexicographically, values ascending; the empty letter set
    yields the single empty valuation.
    """
    sorted_names = sorted(set(names))
    for combo in product(m.values, repeat=len(sorted_names)):
        yield dict(zip(sorted_names, combo))


# ---------------------------------------------------------------------------
# The evaluation engine.  Every query below reads it; `evaluate` is the
# per-valuation reference the tests compare it against.
#
# The valuations over a sorted letter domain are numbered in `valuations`
# order, so valuation i spells i in base n = |values|, one digit (a value
# index) per letter, the first letter most significant.  A formula's value
# masks are n integers: bit i of mask v is set when the formula takes value v
# at valuation i (Knuth, TAOCP 4A, 7.1.3).  The space is walked in blocks of
# at most _BLOCK valuations: the trailing letters vary inside a block, the
# leading ones are fixed per block, so memory stays bounded at any number of
# letters and a query that is decided early stops early.
#
# Each block has a memo of the masks of the subformulas evaluated over it,
# keyed by their text (each node carries it, and equal formulas have equal
# texts), so a subformula shared by the formulas of a query, or asked for
# again by a later query over the same domain, is evaluated once.  A domain
# that fits in one block, as every domain of the default audit does, is kept
# in `Matrix.memo` under (_BLOCK, its sorted letters): its letters' masks are
# built once per matrix and its memo lives on from query to query.  Both
# caches are bounded by constants, with no option: a matrix keeps its
# _DOMAINS most recently used domains, and a memo at most _MEMO_SIZE masks
# (a full one is emptied), so at most _DOMAINS * _MEMO_SIZE masks per
# matrix.  Most reuse is within a domain or two, while every domain kept
# costs memory when queries keep naming new letters.  A domain of several
# blocks gets a fresh memo per block.

_BLOCK = MAX_VALUES**2  # 2^12, so two letters' valuations fit in one block
_DOMAINS = 4
_MEMO_SIZE = 256

LetterMasks = dict[str, Sequence[int]]
Memo = dict[str, Sequence[int]]


def _blocks(
    m: Matrix, names: Iterable[str]
) -> Iterator[tuple[int, LetterMasks, Memo, int]]:
    """The blocks of the valuation space over `names`, in `valuations` order.

    Each is (number of its first valuation, value masks of every letter,
    memo of subformula masks, all-ones mask of the block).
    """
    sorted_names = sorted(set(names))
    key = (_BLOCK, *sorted_names)
    domain = m.memo.pop(key, None)
    if domain is not None:
        m.memo[key] = domain  # the most recently used last
        yield 0, *domain
        return
    n = len(m.values)
    inner = 0
    while inner < len(sorted_names) and n ** (inner + 1) <= _BLOCK:
        inner += 1
    lead = sorted_names[: len(sorted_names) - inner]
    size = n**inner
    full = (1 << size) - 1
    varying: LetterMasks = {}
    for j, name in enumerate(sorted_names[len(lead) :]):
        stride = n ** (inner - 1 - j)  # valuations per run of one value
        every_period = full // ((1 << (n * stride)) - 1)  # bit 0 of each period
        run = (1 << stride) - 1
        varying[name] = tuple((run << (v * stride)) * every_period for v in range(n))
    if not lead:
        if len(m.memo) >= _DOMAINS:
            del m.memo[next(iter(m.memo))]
        domain = m.memo[key] = (varying, {}, full)
        yield 0, *domain
        return
    fixed = [tuple(full if v == d else 0 for v in range(n)) for d in range(n)]
    for block, digits in enumerate(product(range(n), repeat=len(lead))):
        letter_masks = dict(varying)
        letter_masks.update(zip(lead, (fixed[d] for d in digits)))
        yield block * size, letter_masks, {}, full


def _neg_masks(neg: Sequence[int], child: Sequence[int]) -> list[int]:
    out = [0] * len(neg)
    for value, mask in zip(neg, child):
        out[value] |= mask
    return out


def _binary_masks(
    table: Sequence[Sequence[int]], left: Sequence[int], right: Sequence[int]
) -> list[int]:
    out = [0] * len(table)
    for row, a in zip(table, left):
        if a:
            for value, b in zip(row, right):
                out[value] |= a & b
    return out


def _masks(m: Matrix, f: Formula, letter_masks: LetterMasks, memo: Memo) -> Sequence[int]:
    """The value masks of `f` over one block, shared with `memo`: not to be
    mutated."""
    cls = f.__class__
    if cls is Letter:
        return letter_masks[f.name]
    text = f.text
    masks = memo.get(text)
    if masks is None:
        if cls is Neg:
            masks = _neg_masks(m.neg_ix, _masks(m, f.child, letter_masks, memo))
        else:
            table = m.or_ix if cls is Or else m.and_ix if cls is And else m.imp_ix
            masks = _binary_masks(
                table,
                _masks(m, f.left, letter_masks, memo),
                _masks(m, f.right, letter_masks, memo),
            )
        if len(memo) >= _MEMO_SIZE:
            memo.clear()
        memo[text] = masks
    return masks


def _designated(m: Matrix, masks: Sequence[int]) -> int:
    """The valuations where a formula with these value masks is designated."""
    out = 0
    for v in m.designated_ix:
        out |= masks[v]
    return out


def _models_mask(
    m: Matrix, gamma: FormulaSet, letter_masks: LetterMasks, memo: Memo, full: int
) -> int:
    """The valuations of one block that designate every member of `gamma`."""
    out = full
    for g in gamma:
        out &= _designated(m, _masks(m, g, letter_masks, memo))
        if not out:
            break
    return out


def _valuation(m: Matrix, names: Iterable[str], number: int) -> Valuation:
    """The valuation numbered `number` in `valuations` order."""
    sorted_names = sorted(set(names))
    digits = []
    for _ in sorted_names:
        number, digit = divmod(number, len(m.values))
        digits.append(digit)
    return {name: m.values[d] for name, d in zip(sorted_names, reversed(digits))}


def _set_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def models(
    m: Matrix, gamma: FormulaSet, names: Iterable[str] | None = None
) -> list[Valuation]:
    """The models of `gamma`, restricted to the given letter domain."""
    own = gamma.letters()
    domain = own if names is None else set(names)
    if not own <= domain:
        raise ValueError("letter domain must cover the letters of gamma")
    return [
        _valuation(m, domain, first + i)
        for first, letter_masks, memo, full in _blocks(m, domain)
        for i in _set_bits(_models_mask(m, gamma, letter_masks, memo, full))
    ]


@dataclass
class EntailmentResult:
    holds: bool
    countermodel: Valuation | None = None

    def __bool__(self) -> bool:
        return self.holds


def entails(m: Matrix, gamma: FormulaSet, alpha: Formula) -> EntailmentResult:
    """Does every model of `gamma` designate `alpha`?

    Decided over the letters of `gamma` and `alpha`; enlarging the domain by
    fresh letters does not change the verdict.
    """
    domain = gamma.letters() | alpha.letters
    for first, letter_masks, memo, full in _blocks(m, domain):
        refuting = _models_mask(m, gamma, letter_masks, memo, full)
        if refuting:
            refuting &= ~_designated(m, _masks(m, alpha, letter_masks, memo))
        if refuting:
            first_refuting = first + next(_set_bits(refuting))
            return EntailmentResult(False, _valuation(m, domain, first_refuting))
    return EntailmentResult(True)


class Classification(Enum):
    TAUTOLOGY = "tautology"
    CONTRADICTION = "contradiction"
    UNSATISFIABLE_NONDEGENERATE = "unsatisfiable_nondegenerate"
    CONTINGENT = "contingent"


def classify(m: Matrix, alpha: Formula) -> Classification:
    """Tautology / contradiction / unsatisfiable-but-not-always-0 / contingent.

    The contradiction class (value 0 under every valuation) only applies when
    the matrix has a non-designated value 0; otherwise unsatisfiable formulas
    all land in UNSATISFIABLE_NONDEGENERATE.
    """
    zero = Fraction(0)
    zero_ix = m.values.index(zero) if zero in m.values and zero not in m.designated else None
    ever_designated = False
    all_designated = True
    always_zero = zero_ix is not None
    for _, letter_masks, memo, full in _blocks(m, alpha.letters):
        masks = _masks(m, alpha, letter_masks, memo)
        designated = _designated(m, masks)
        ever_designated = ever_designated or designated != 0
        all_designated = all_designated and designated == full
        always_zero = always_zero and masks[zero_ix] == full
        if ever_designated and not all_designated:
            return Classification.CONTINGENT
    if all_designated:
        return Classification.TAUTOLOGY
    if always_zero:
        return Classification.CONTRADICTION
    return Classification.UNSATISFIABLE_NONDEGENERATE


def is_consistent(m: Matrix, gamma: FormulaSet) -> bool:
    """Consistency of a finite set, decided by satisfiability.

    A model of `gamma` extends with a fresh letter mapped to a non-designated
    value (the designated set is proper), so some formula escapes the
    consequences of `gamma`; conversely a modelless set entails everything.
    """
    return any(
        _models_mask(m, gamma, letter_masks, memo, full)
        for _, letter_masks, memo, full in _blocks(m, gamma.letters())
    )


def tautology_free_check(m: Matrix, names: Iterable[str], max_depth: int) -> bool:
    """True iff every formula over `names` up to `max_depth` takes value 1/2
    under the valuation assigning 1/2 everywhere.

    By induction on formulas, that holds at any depth from 1 on exactly when
    every connective maps 1/2 (in every argument) to 1/2.
    """
    half = Fraction(1, 2)
    if half not in m.values:
        raise ValueError("matrix has no 1/2 value")
    if not set(names):
        raise ValueError("letter set must be nonempty")
    h = m.values.index(half)
    return max_depth < 1 or all(
        out == h for out in (m.neg_ix[h], m.or_ix[h][h], m.and_ix[h][h], m.imp_ix[h][h])
    )
