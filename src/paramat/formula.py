"""Propositional language: AST, parser, printer, and bounded formula generators.

The language has negation, disjunction, conjunction and implication over
propositional letters.  ASCII connectives are ``~ | & ->`` with the Unicode
aliases ``¬ ∨ ∧ →`` accepted on input.  Precedence is ``~ > & > | > ->`` and
``->`` associates to the right.  The parser rejects formulas, and
parentheses, nested deeper than ``MAX_DEPTH``, so every recursive walk over a
parsed formula stays inside Python's default recursion limit.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator


class ParseError(ValueError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True)
class Formula:
    # the canonical text, kept by the first `render` of this node; not part
    # of equality, hashing or repr
    _text: str | None = field(default=None, init=False, compare=False, repr=False)

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True, slots=True)
class Letter(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Imp(Formula):
    left: Formula
    right: Formula


_BINARY_PREC = {Imp: 1, Or: 2, And: 3}
_BINARY_SYM = {Imp: " -> ", Or: " | ", And: " & "}


def _prec(f: Formula) -> int:
    return _BINARY_PREC.get(type(f), 4)


def render(f: Formula) -> str:
    """Minimal-parentheses text for `f`; ``parse(render(f)) == f``.

    Distinct formulas have distinct texts.  Each node keeps its text once it
    has been rendered, so rendering a formula again costs one lookup.
    """
    text = f._text
    if text is None:
        text = _render(f)
        object.__setattr__(f, "_text", text)
    return text


def _render(f: Formula) -> str:
    if isinstance(f, Letter):
        return f.name
    if isinstance(f, Neg):
        inner = render(f.child)
        if isinstance(f.child, (Letter, Neg)):
            return "~" + inner
        return "~(" + inner + ")"
    prec = _BINARY_PREC[type(f)]
    left, right = render(f.left), render(f.right)
    if isinstance(f, Imp):
        # right-associative: parenthesize an implication on the left
        if _prec(f.left) <= prec:
            left = "(" + left + ")"
        if _prec(f.right) < prec:
            right = "(" + right + ")"
    else:
        # left-associative: parenthesize an equal-precedence right child
        if _prec(f.left) < prec:
            left = "(" + left + ")"
        if _prec(f.right) <= prec:
            right = "(" + right + ")"
    return left + _BINARY_SYM[type(f)] + right


_TOKEN_RE = re.compile(r"->|→|[~¬|∨&∧()]|[a-z][a-zA-Z0-9_]*")
_ALIASES = {"→": "->", "¬": "~", "∨": "|", "∧": "&"}


def _tokenize(text: str) -> tuple[list[str | None], list[int]]:
    """Token kinds, ended by a None sentinel, and their start positions."""
    kinds: list[str | None] = []
    positions = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kinds.append(_ALIASES.get(m.group(), m.group()))
        positions.append(pos)
        pos = m.end()
    kinds.append(None)
    return kinds, positions


# Parsing spends five stack frames per level of parentheses, and render,
# letters, depth and evaluate one per connective, so formulas at most this
# deep stay well inside Python's default recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent over the tokens.  Each rule returns its formula and
    that formula's depth, so nothing deeper than MAX_DEPTH is built; only
    parentheses recurse, and they too stop at MAX_DEPTH."""

    def __init__(self, text: str):
        self.text = text
        # the None sentinel ending `kinds` spares lookahead a bounds check
        self.kinds, self.positions = _tokenize(text)
        self.index = 0
        self.open_parens = 0

    def _pos(self) -> int:
        if self.index < len(self.positions):
            return self.positions[self.index]
        return len(self.text)

    def _too_deep(self) -> ParseError:
        return ParseError(f"formula nested deeper than {MAX_DEPTH} levels", self._pos())

    def imp(self) -> tuple[Formula, int]:
        f, d = self.dis()
        if self.kinds[self.index] != "->":
            return f, d
        operands = [(f, d)]
        while self.kinds[self.index] == "->":
            self.index += 1
            operands.append(self.dis())
        f, d = operands.pop()
        for left, e in reversed(operands):  # "->" associates to the right
            d = 1 + (d if d > e else e)
            if d > MAX_DEPTH:
                raise self._too_deep()
            f = Imp(left, f)
        return f, d

    def dis(self) -> tuple[Formula, int]:
        f, d = self.con()
        while self.kinds[self.index] == "|":
            self.index += 1
            right, e = self.con()
            d = 1 + (d if d > e else e)
            if d > MAX_DEPTH:
                raise self._too_deep()
            f = Or(f, right)
        return f, d

    def con(self) -> tuple[Formula, int]:
        f, d = self.neg()
        while self.kinds[self.index] == "&":
            self.index += 1
            right, e = self.neg()
            d = 1 + (d if d > e else e)
            if d > MAX_DEPTH:
                raise self._too_deep()
            f = And(f, right)
        return f, d

    def neg(self) -> tuple[Formula, int]:
        start = self.index
        while self.kinds[self.index] == "~":
            self.index += 1
        count = self.index - start
        f, d = self.atom()
        if count:
            d += count
            if d > MAX_DEPTH:
                raise self._too_deep()
            for _ in range(count):
                f = Neg(f)
        return f, d

    def atom(self) -> tuple[Formula, int]:
        tok = self.kinds[self.index]
        if tok == "(":
            if self.open_parens == MAX_DEPTH:
                raise self._too_deep()
            self.open_parens += 1
            self.index += 1
            f, d = self.imp()
            if self.kinds[self.index] != ")":
                raise ParseError("expected ')'", self._pos())
            self.index += 1
            self.open_parens -= 1
            return f, d
        if tok is not None and tok[0].isalpha():
            self.index += 1
            return Letter(tok), 0
        raise ParseError("expected a letter or '('", self._pos())


def parse(text: str) -> Formula:
    """Parse formula text into an AST.

    Raises ParseError on malformed text and on formulas, or parentheses,
    nested deeper than MAX_DEPTH.
    """
    parser = _Parser(text)
    f, _ = parser.imp()
    if parser.index != len(parser.positions):
        tok = parser.kinds[parser.index]
        raise ParseError(f"unexpected token {tok!r}", parser._pos())
    return f


def letters(f: Formula) -> set[str]:
    """The set of letter names occurring in `f`."""
    if isinstance(f, Letter):
        return {f.name}
    if isinstance(f, Neg):
        return letters(f.child)
    return letters(f.left) | letters(f.right)


def depth(f: Formula) -> int:
    """Connective-nesting depth; a bare letter has depth 0."""
    if isinstance(f, Letter):
        return 0
    if isinstance(f, Neg):
        return 1 + depth(f.child)
    return 1 + max(depth(f.left), depth(f.right))


class FormulaSet:
    """Finite set of formulas, kept in canonical (rendered-string) order."""

    __slots__ = ("formulas",)

    def __init__(self, formulas: Iterable[Formula] = ()):
        # `render` is injective, so deduplicating by text is deduplicating by
        # equality, without hashing whole trees.  The tuple is built from a
        # list: built from a generator, it raised the default audit's peak
        # traced memory from 0.4 to 0.8 MB.
        by_text: dict[str, Formula] = {}
        for f in formulas:
            by_text.setdefault(render(f), f)
        self.formulas: tuple[Formula, ...] = tuple([by_text[t] for t in sorted(by_text)])

    @classmethod
    def from_text(cls, text: str) -> "FormulaSet":
        """Parse a comma-separated list of formulas; blank text means the empty set."""
        parts = [part for part in text.split(",") if part.strip()]
        return cls(parse(part) for part in parts)

    def letters(self) -> set[str]:
        out: set[str] = set()
        for f in self.formulas:
            out |= letters(f)
        return out

    def union(self, other: Iterable[Formula]) -> "FormulaSet":
        return FormulaSet((*self.formulas, *other))

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)

    def __contains__(self, f: object) -> bool:
        return f in self.formulas

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FormulaSet) and self.formulas == other.formulas

    def __hash__(self) -> int:
        return hash(self.formulas)

    def __str__(self) -> str:
        return "{" + ", ".join(render(f) for f in self.formulas) + "}"

    def __repr__(self) -> str:
        return f"FormulaSet({list(self.formulas)!r})"


def enumerate_formulas(names: Iterable[str], max_depth: int) -> Iterator[Formula]:
    """Every formula over `names` with depth <= `max_depth`, each exactly once.

    Yields level by level (depth 0, then exactly-depth 1, ...) in a fixed
    deterministic order, so prefixes of the stream are stable.
    """
    sorted_names = sorted(set(names))
    if not sorted_names:
        raise ValueError("letter set must be nonempty")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    pool: list[Formula] = [Letter(n) for n in sorted_names]
    yield from pool
    prev_start = 0  # index in `pool` where the previous level begins
    for _ in range(max_depth):
        level: list[Formula] = [Neg(f) for f in pool[prev_start:]]
        for ctor in (Or, And, Imp):
            for i, a in enumerate(pool):
                for j, b in enumerate(pool):
                    if i >= prev_start or j >= prev_start:
                        level.append(ctor(a, b))
        yield from level
        prev_start = len(pool)
        pool.extend(level)


def draw_formula(rng: random.Random, names: list[str], max_depth: int) -> Formula:
    """One random formula over `names` with depth <= `max_depth`."""
    if max_depth <= 0:
        return Letter(rng.choice(names))
    kind = rng.randrange(5)
    if kind == 0:
        return Letter(rng.choice(names))
    if kind == 1:
        return Neg(draw_formula(rng, names, max_depth - 1))
    ctor = (Or, And, Imp)[kind - 2]
    return ctor(
        draw_formula(rng, names, max_depth - 1),
        draw_formula(rng, names, max_depth - 1),
    )

