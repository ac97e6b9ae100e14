"""Paraconsistent consequence: entailment from consistent subsets of the premises.

A family of subsets of the n premises is a *table*, an integer of 2^n bits
whose bit s stands for the subset with bitset s.  The consistent table is the
down-closure of the valuations' distinct membership sets {i : v designates
premise i}; a target's *entailing table* drops from it the subsets inside the
membership set of some valuation that refutes the target, and the target is
a transformed consequence exactly when that table is nonempty.  Applying the
transform twice yields what applying it once does (`logic_entails`).  The
maximal consistent subsets, those with no consistent one-member extension,
are set bits of a table that `str.find` locates in its binary string.  The
witness of `para_entails`, the first entailing subset in canonical order, is
narrowed out of its table with the tables of each size and of each member.

The tables are folded by `_tables` from the engine's blocks of at most 2^12
valuations, one block at a time, so memory is O(2^n + block) whatever the
number of letters; time still grows with the number of valuations.  n is at
most the fixed DEFAULT_SUBSET_BOUND.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterator, Sequence

from .formula import Formula, FormulaSet, Letter
from .matrix import Matrix
from .semantics import _blocks, _designated, _masks, entails

# Not called here; perfbench's tracer test wraps `evaluate` at this binding.
from .semantics import evaluate  # noqa: F401

DEFAULT_SUBSET_BOUND = 16


class SubsetBoundError(ValueError):
    """Premise set larger than DEFAULT_SUBSET_BOUND, the fixed subset bound."""


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


def _membership_sets(member_masks: list[int], full: int) -> list[tuple[int, int]]:
    """Each distinct set of members designated together, with the mask of the
    valuations designating exactly it.  Splitting member by member and dropping
    empty parts makes the work follow the number of sets, not of valuations."""
    parts = [(0, full)]
    for i, mask in enumerate(member_masks):
        split = []
        for members, vals in parts:
            inside = vals & mask
            if inside:
                split.append((members | 1 << i, inside))
            if inside != vals:
                split.append((members, vals ^ inside))
        parts = split
    return parts


@cache  # one entry per premise count, a few hundred kB in all up to 16
def _with_member(n: int) -> tuple[int, ...]:
    """For each member i, the table of the subsets that contain i."""
    if n == 0:
        return ()
    half = 1 << (n - 1)  # the subsets with member n - 1 are the upper half
    return (*(t | t << half for t in _with_member(n - 1)), ((1 << half) - 1) << half)


def _down(table: int, n: int) -> int:
    """The table closed under taking subsets."""
    for i, has in enumerate(_with_member(n)):
        table |= (table & has) >> (1 << i)
    return table


def _bounded(gamma: FormulaSet) -> int:
    """The size of `gamma`, which must not exceed DEFAULT_SUBSET_BOUND."""
    n = len(gamma)
    if n > DEFAULT_SUBSET_BOUND:
        raise SubsetBoundError(
            f"premise set of size {n} exceeds the bound {DEFAULT_SUBSET_BOUND}"
        )
    return n


def _tables(
    m: Matrix, gamma: FormulaSet, targets: Sequence[Formula] = ()
) -> tuple[int, list[int]]:
    """The consistent table of `gamma` and the entailing table of each target.

    Built one block of valuations at a time: each block's membership sets go
    into the consistent table, and into a target's refuted table where a
    valuation of theirs refutes the target; both are down-closed at the end.
    """
    n = _bounded(gamma)
    domain = gamma.letters().union(*[t.letters for t in targets])
    consistent = 0
    refuted = [0] * len(targets)
    for _, letter_masks, memo, full in _blocks(m, domain):
        member_masks = [_designated(m, _masks(m, g, letter_masks, memo)) for g in gamma]
        target_masks = [_designated(m, _masks(m, t, letter_masks, memo)) for t in targets]
        for members, vals in _membership_sets(member_masks, full):
            consistent |= 1 << members
            for i, mask in enumerate(target_masks):
                if vals & ~mask:
                    refuted[i] |= 1 << members
    consistent = _down(consistent, n)
    return consistent, [consistent & ~_down(table, n) for table in refuted]


@cache  # one entry per premise count, a few hundred kB in all up to 16
def _of_size(n: int) -> tuple[int, ...]:
    """For each size k from 0 to n, the table of the subsets of k members."""
    if n == 0:
        return (1,)
    half = 1 << (n - 1)  # the subsets with member n - 1 are the upper half
    smaller = (*_of_size(n - 1), 0)
    return (1, *(smaller[k] | smaller[k - 1] << half for k in range(1, n + 1)))


def _first_in_canonical_order(table: int, n: int) -> int:
    """The bitset of the first subset of a nonempty table in canonical order.

    The smallest size with a subset in the table comes first.  Of two subsets
    of one size, combination order puts first the one that holds the lowest
    member where they differ, so the candidates are narrowed member by member
    to those holding it, whenever one does.
    """
    for layer in _of_size(n):
        candidates = table & layer
        if candidates:
            break
    for has in _with_member(n):
        if candidates & (candidates - 1) == 0:
            break
        if narrowed := candidates & has:
            candidates = narrowed
    return candidates.bit_length() - 1


def _in_canonical_order(gamma: FormulaSet, table: int) -> Iterator[FormulaSet]:
    """The table's subsets by ascending size, then combination order."""
    n = len(gamma)
    flags = bin(table)[:1:-1].ljust(1 << n, "0")  # character s for subset s
    singletons = [1 << i for i in range(n)]
    for size in range(n + 1):
        for combo in combinations(singletons, size):
            if flags[bits := sum(combo)] == "1":
                yield _members_of(gamma, bits)


def _members_of(gamma: FormulaSet, bits: int) -> FormulaSet:
    return FormulaSet(f for i, f in enumerate(gamma) if bits & (1 << i))


def consistent_subsets(m: Matrix, gamma: FormulaSet) -> Iterator[FormulaSet]:
    """All consistent subsets of `gamma`, each once; the empty set is always one."""
    consistent, _ = _tables(m, gamma)
    yield from _in_canonical_order(gamma, consistent)


def maximal_consistent_subsets(m: Matrix, gamma: FormulaSet) -> list[FormulaSet]:
    """The inclusion-maximal consistent subsets of `gamma`, in canonical order:
    the consistent subsets with no consistent one-member extension."""
    n = len(gamma)
    consistent, _ = _tables(m, gamma)
    extendable = 0
    for i, has in enumerate(_with_member(n)):
        extendable |= (consistent & has) >> (1 << i)
    flags = bin(consistent & ~extendable)[:1:-1]  # character s for subset s
    out = []
    bits = flags.find("1")
    while bits >= 0:
        out.append(_members_of(gamma, bits))
        bits = flags.find("1", bits + 1)
    return sorted(out, key=lambda s: tuple(str(f) for f in s))


def para_entails(m: Matrix, gamma: FormulaSet, alpha: Formula) -> ParaResult:
    """Does some consistent subset of `gamma` entail `alpha`?

    Read from the entailing table of `alpha`, built for all 2^n subsets at
    once; the witness is its smallest subset, ties broken by canonical order.
    """
    _, (entailing,) = _tables(m, gamma, [alpha])
    if not entailing:
        return ParaResult(False)
    witness = _first_in_canonical_order(entailing, len(gamma))
    return ParaResult(True, _members_of(gamma, witness))


def fresh_letter(used: set[str]) -> Formula:
    """A letter not occurring in `used`."""
    i = 0
    while f"q{i}" in used:
        i += 1
    return Letter(f"q{i}")


def is_para_consistent(m: Matrix, gamma: FormulaSet) -> bool:
    """Is the transformed consequence set of `gamma` a proper subset of all formulas?

    Decided by the fresh-letter test: the set is proper exactly when a letter
    outside `gamma` is not in it.  A consistent subset leaves that letter
    free, so it entails it exactly when the empty set, itself consistent,
    does; the empty set is asked instead.  With a proper designated set the
    answer is always true, but `gamma` is still held to DEFAULT_SUBSET_BOUND.
    """
    _bounded(gamma)
    return not para_entails(m, FormulaSet(), fresh_letter(gamma.letters())).holds


def logic_entails(spec: LogicSpec, gamma: FormulaSet, alpha: Formula) -> bool:
    """Entailment at the configured transform depth.

    Depth 0 is plain matrix entailment; depth 1 asks whether some consistent
    subset entails `alpha`, read from its entailing table without a witness.
    Depth 2 answers as depth 1: every finite set is consistent under the
    transform (`is_para_consistent`), so the second transform draws on every
    subset, and by monotonicity none yields more than the whole set.
    """
    if spec.para_depth == 0:
        return entails(spec.matrix, gamma, alpha).holds
    _, (entailing,) = _tables(spec.matrix, gamma, [alpha])
    return entailing != 0
