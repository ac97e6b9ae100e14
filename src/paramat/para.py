"""Paraconsistent consequence: entailment from consistent subsets of the premises.

``para_entails`` decides whether some consistent subset of the premises
entails the conclusion; ``logic_entails`` additionally supports one more
application of the transform (depth 2), where subset consistency is judged
by the depth-1 relation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .formula import Formula, FormulaSet, Letter, letters
from .matrix import Matrix
from .semantics import _designated, _domain_masks, entails

# Not called here; perfbench's tracer test wraps `evaluate` at this binding.
from .semantics import evaluate  # noqa: F401

DEFAULT_SUBSET_BOUND = 16


class SubsetBoundError(ValueError):
    """Premise set larger than the configured subset-enumeration bound."""


@dataclass
class ParaResult:
    holds: bool
    witness: FormulaSet | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class LogicSpec:
    """A matrix plus the number of transform applications (0 = base logic)."""

    matrix: Matrix
    para_depth: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.para_depth <= 2:
            raise ValueError("para_depth must be 0, 1 or 2")

    @property
    def name(self) -> str:
        label = self.matrix.name
        for _ in range(self.para_depth):
            label = f"P({label})"
        return label


def _check_bound(gamma: FormulaSet, bound: int) -> None:
    if len(gamma) > bound:
        raise SubsetBoundError(
            f"premise set of size {len(gamma)} exceeds the bound {bound}"
        )


def _formula_masks(
    m: Matrix, formulas: list[Formula], names: set[str]
) -> tuple[list[int], int]:
    """Bitmask of satisfying valuations over `names` for each formula.

    Bit i corresponds to the i-th valuation in `semantics.valuations` order.
    Returns the masks and the all-ones mask.
    """
    value_masks, full = _domain_masks(m, formulas, names)
    return [_designated(m, masks) for masks in value_masks], full


def _subset_and_masks(member_masks: list[int], full: int) -> list[int]:
    """Intersection mask for every subset of the members (index = bitset)."""
    out = [full] * (1 << len(member_masks))
    for t in range(1, len(out)):
        low = t & -t
        out[t] = out[t ^ low] & member_masks[low.bit_length() - 1]
    return out


def _subsets_in_canonical_order(n: int) -> Iterator[int]:
    """Subset bitsets by ascending size, then combination order."""
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            bits = 0
            for i in combo:
                bits |= 1 << i
            yield bits


def _members_of(gamma: FormulaSet, bits: int) -> FormulaSet:
    return FormulaSet(f for i, f in enumerate(gamma) if bits & (1 << i))


def consistent_subsets(
    m: Matrix, gamma: FormulaSet, bound: int = DEFAULT_SUBSET_BOUND
) -> Iterator[FormulaSet]:
    """All consistent subsets of `gamma`, each once; the empty set is always one."""
    _check_bound(gamma, bound)
    masks, full = _formula_masks(m, list(gamma), gamma.letters())
    and_masks = _subset_and_masks(masks, full)
    for bits in _subsets_in_canonical_order(len(gamma)):
        if and_masks[bits]:
            yield _members_of(gamma, bits)


def maximal_consistent_subsets(
    m: Matrix, gamma: FormulaSet, bound: int = DEFAULT_SUBSET_BOUND
) -> list[FormulaSet]:
    """The inclusion-maximal consistent subsets of `gamma`, in canonical order."""
    _check_bound(gamma, bound)
    n = len(gamma)
    masks, full = _formula_masks(m, list(gamma), gamma.letters())
    and_masks = _subset_and_masks(masks, full)
    out = []
    for bits in range(1 << n):
        if not and_masks[bits]:
            continue
        if any(
            not bits & (1 << i) and and_masks[bits | (1 << i)] for i in range(n)
        ):
            continue
        out.append(_members_of(gamma, bits))
    return sorted(out, key=lambda s: tuple(str(f) for f in s))


def para_entails(
    m: Matrix, gamma: FormulaSet, alpha: Formula, bound: int = DEFAULT_SUBSET_BOUND
) -> ParaResult:
    """Does some consistent subset of `gamma` entail `alpha`?

    Decided over the maximal consistent subsets (sound by monotonicity of the
    base consequence; cross-checked against the all-subsets brute force in the
    test suite).  The witness is the smallest entailing consistent subset,
    ties broken by canonical order.
    """
    _check_bound(gamma, bound)
    n = len(gamma)
    domain = gamma.letters() | letters(alpha)
    masks, full = _formula_masks(m, [*gamma, alpha], domain)
    member_masks, alpha_mask = masks[:n], masks[n]
    and_masks = _subset_and_masks(member_masks, full)

    def entails_alpha(bits: int) -> bool:
        return and_masks[bits] & ~alpha_mask & full == 0

    holds = False
    for bits in range(1 << n):
        if not and_masks[bits]:
            continue
        if any(
            not bits & (1 << i) and and_masks[bits | (1 << i)] for i in range(n)
        ):
            continue  # not maximal
        if entails_alpha(bits):
            holds = True
            break
    if not holds:
        return ParaResult(False)
    for bits in _subsets_in_canonical_order(n):
        if and_masks[bits] and entails_alpha(bits):
            return ParaResult(True, _members_of(gamma, bits))
    raise AssertionError("maximal subset entailed alpha but no witness found")


def fresh_letter(used: set[str]) -> Formula:
    """A letter not occurring in `used`."""
    i = 0
    while f"q{i}" in used:
        i += 1
    return Letter(f"q{i}")


def is_para_consistent(
    m: Matrix, gamma: FormulaSet, bound: int = DEFAULT_SUBSET_BOUND
) -> bool:
    """Is the transformed consequence set of `gamma` a proper subset of all formulas?

    Decided by the fresh-letter test: a letter outside `gamma` is a transformed
    consequence only if some consistent subset entails it, and any model of a
    consistent subset extends with the fresh letter mapped to a non-designated
    value.  Exact for finite sets over a proper designated set.
    """
    return not para_entails(m, gamma, fresh_letter(gamma.letters()), bound).holds


def logic_entails(
    spec: LogicSpec,
    gamma: FormulaSet,
    alpha: Formula,
    bound: int = DEFAULT_SUBSET_BOUND,
) -> bool:
    """Entailment at the configured transform depth.

    Depth 0 is plain matrix entailment; depth 1 asks for a consistent subset;
    depth 2 asks for a depth-1-consistent subset that depth-1 entails the
    conclusion, with depth-1 consistency decided by the fresh-letter test.
    """
    if spec.para_depth == 0:
        return entails(spec.matrix, gamma, alpha).holds
    if spec.para_depth == 1:
        return para_entails(spec.matrix, gamma, alpha, bound).holds
    _check_bound(gamma, bound)
    m = spec.matrix
    n = len(gamma)
    fresh = fresh_letter(gamma.letters() | letters(alpha))
    domain = gamma.letters() | letters(alpha) | letters(fresh)
    masks, full = _formula_masks(m, [*gamma, alpha, fresh], domain)
    member_masks, alpha_mask, fresh_mask = masks[:n], masks[n], masks[n + 1]
    and_masks = _subset_and_masks(member_masks, full)

    def depth1_entails(bits: int, target_mask: int) -> bool:
        # some consistent subset of `bits` whose models all designate the target
        sub = bits
        while True:
            if and_masks[sub] and and_masks[sub] & ~target_mask & full == 0:
                return True
            if sub == 0:
                return False
            sub = (sub - 1) & bits

    for bits in range(1 << n):
        depth1_consistent = not depth1_entails(bits, fresh_mask)
        if depth1_consistent and depth1_entails(bits, alpha_mask):
            return True
    return False
