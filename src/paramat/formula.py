"""Propositional language: AST, parser, printer, and bounded formula generators.

The language has negation, disjunction, conjunction and implication over
propositional letters.  ASCII connectives are ``~ | & ->`` with the Unicode
aliases ``¬ ∨ ∧ →`` accepted on input.  Precedence is ``~ > & > | > ->`` and
``->`` associates to the right.

Each node computes its canonical text (`render`), its letters and its depth
from its children's when it is made, so none of the three walks the tree,
and nodes compare and hash by their text, which is injective.  A node keeps
its whole text, so a formula holds characters in proportion to its size
times its depth.  Nodes are immutable by contract: nothing guards their
fields, and nothing may assign to them after construction.  The parser
rejects formulas, and parentheses, nested deeper than ``MAX_DEPTH``, so the
recursive walks that remain stay inside Python's default recursion limit.
"""

from __future__ import annotations

import random
import re
from typing import Iterable, Iterator


class ParseError(ValueError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Formula:
    """A formula node, with its `text`, its `letters` (a frozenset) and its
    `depth`; the module docstring says how they are made."""

    __slots__ = ("text", "letters", "depth")
    _prec = 4  # binding strength: letters and negations bind tightest

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Formula):
            return self.text == other.text
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text


class Letter(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = self.text = name
        self.letters = frozenset((name,))
        self.depth = 0

    def __repr__(self) -> str:
        return f"Letter(name={self.name!r})"


class Neg(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        self.child = child
        text = child.text
        self.text = "~" + text if child._prec == 4 else "~(" + text + ")"
        self.letters = child.letters
        self.depth = child.depth + 1

    def __repr__(self) -> str:
        return f"Neg(child={self.child!r})"


class _Binary(Formula):
    __slots__ = ("left", "right")
    # Set by each connective: its symbol, and the strongest binding a left or
    # right child may have and still need parentheses.  "->" associates to the
    # right, "|" and "&" to the left.
    _sym: str
    _wrap_left: int
    _wrap_right: int

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        lt, rt = left.text, right.text
        if left._prec <= self._wrap_left:
            lt = "(" + lt + ")"
        if right._prec <= self._wrap_right:
            rt = "(" + rt + ")"
        self.text = lt + self._sym + rt
        a, b = left.letters, right.letters
        self.letters = a if b <= a else b if a <= b else a | b
        d, e = left.depth, right.depth
        self.depth = (d if d > e else e) + 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}(left={self.left!r}, right={self.right!r})"


class Or(_Binary):
    __slots__ = ()
    _prec, _sym, _wrap_left, _wrap_right = 2, " | ", 1, 2


class And(_Binary):
    __slots__ = ()
    _prec, _sym, _wrap_left, _wrap_right = 3, " & ", 2, 3


class Imp(_Binary):
    __slots__ = ()
    _prec, _sym, _wrap_left, _wrap_right = 1, " -> ", 1, 0


def render(f: Formula) -> str:
    """Minimal-parentheses text for `f`; ``parse(render(f)) == f``."""
    return f.text


# One match per token: the whitespace before it, and the token.  A character
# that starts no token matches alone, and `_Parser._error` reports it.
_TOKEN_RE = re.compile(r"(\s*)(->|→|[~¬|∨&∧()]|[a-z][a-zA-Z0-9_]*|\S)")
_ALIASES = {"→": "->", "¬": "~", "∨": "|", "∧": "&"}

# Parsing spends three stack frames per level of parentheses (`imp`, `dis`,
# `operand`), and `evaluate`, the engine's `_masks` and `repr` one or two per
# connective, so formulas at most this deep stay well inside Python's default
# recursion limit of 1000.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent over the tokens.  Each rule checks the depth of the
    nodes it builds, so nothing deeper than MAX_DEPTH is built; only
    parentheses recurse, and they too stop at MAX_DEPTH."""

    def __init__(self, text: str):
        self.text = text
        # With trailing whitespace stripped, every match ends on a token, so
        # the scan never retries from inside a run of whitespace.
        self.pairs: list[tuple[str, str]] = _TOKEN_RE.findall(text.rstrip())
        # the "" sentinel ending `kinds` spares lookahead a bounds check
        self.kinds = [_ALIASES.get(tok, tok) for _, tok in self.pairs]
        self.kinds.append("")
        self.index = 0
        self.open_parens = 0

    def _error(self, message: str) -> ParseError:
        """`message` at the current token, unless some character starts no
        token: that one is reported, wherever it is.  Positions are counted
        only here, on the way out."""
        for index, kind in enumerate(self.kinds[:-1]):
            if kind not in ("->", "~", "|", "&", "(", ")") and not "a" <= kind < "{":
                self.index = index
                message = f"unexpected character {kind!r}"
                break
        if self.index == len(self.pairs):
            return ParseError(message, len(self.text))
        before = sum(len(ws) + len(tok) for ws, tok in self.pairs[: self.index])
        return ParseError(message, before + len(self.pairs[self.index][0]))

    def _too_deep(self) -> ParseError:
        return self._error(f"formula nested deeper than {MAX_DEPTH} levels")

    def _bounded(self, f: Formula) -> Formula:
        if f.depth > MAX_DEPTH:
            raise self._too_deep()
        return f

    def imp(self) -> Formula:
        operands = [self.dis()]
        while self.kinds[self.index] == "->":
            self.index += 1
            operands.append(self.dis())
        f = operands.pop()
        for left in reversed(operands):  # "->" associates to the right
            f = self._bounded(Imp(left, f))
        return f

    def dis(self) -> Formula:
        """A disjunction of conjunctions; both associate to the left."""
        kinds = self.kinds
        f = None
        while True:
            g = self.operand()
            while kinds[self.index] == "&":
                self.index += 1
                g = self._bounded(And(g, self.operand()))
            f = g if f is None else self._bounded(Or(f, g))
            if kinds[self.index] != "|":
                return f
            self.index += 1

    def operand(self) -> Formula:
        """A letter or a parenthesised formula, under its '~' prefix."""
        kinds = self.kinds
        start = self.index
        while kinds[self.index] == "~":
            self.index += 1
        count = self.index - start
        tok = kinds[self.index]
        if tok == "(":
            if self.open_parens == MAX_DEPTH:
                raise self._too_deep()
            self.open_parens += 1
            self.index += 1
            f = self.imp()
            if kinds[self.index] != ")":
                raise self._error("expected ')'")
            self.open_parens -= 1
        elif "a" <= tok < "{":  # a letter token starts with a-z
            f = Letter(tok)
        else:
            raise self._error("expected a letter or '('")
        self.index += 1
        if f.depth + count > MAX_DEPTH:
            raise self._too_deep()
        for _ in range(count):
            f = Neg(f)
        return f


def parse(text: str) -> Formula:
    """Parse formula text into an AST.

    Raises ParseError on malformed text and on formulas, or parentheses,
    nested deeper than MAX_DEPTH.
    """
    parser = _Parser(text)
    f = parser.imp()
    if parser.index != len(parser.pairs):
        raise parser._error(f"unexpected token {parser.kinds[parser.index]!r}")
    return f


def letters(f: Formula) -> frozenset[str]:
    """The set of letter names occurring in `f`."""
    return f.letters


def depth(f: Formula) -> int:
    """Connective-nesting depth; a bare letter has depth 0."""
    return f.depth


class FormulaSet:
    """Finite set of formulas, kept in canonical (rendered-string) order."""

    __slots__ = ("formulas",)

    def __init__(self, formulas: Iterable[Formula] = ()):
        # Formulas are equal exactly when their texts are.  The tuple is
        # built from a list: built from a generator, it raised the default
        # audit's peak traced memory from 0.4 to 0.8 MB.
        by_text: dict[str, Formula] = {}
        for f in formulas:
            by_text.setdefault(f.text, f)
        self.formulas: tuple[Formula, ...] = tuple([by_text[t] for t in sorted(by_text)])

    @classmethod
    def from_text(cls, text: str) -> "FormulaSet":
        """Parse a comma-separated list of formulas; blank text means the empty set."""
        parts = [part for part in text.split(",") if part.strip()]
        return cls(parse(part) for part in parts)

    def letters(self) -> frozenset[str]:
        return frozenset().union(*[f.letters for f in self.formulas])

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
        return "{" + ", ".join(f.text for f in self.formulas) + "}"

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

