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


# One match per token; whitespace matches nothing and is skipped.  A character
# that starts no token matches alone, and `_error` reports it.
_TOKEN_RE = re.compile(r"->|→|[~¬|∨&∧()]|[a-z][a-zA-Z0-9_]*|\S")
_ALIASES = {"→": "->", "¬": "~", "∨": "|", "∧": "&"}

# The parser is a loop and keeps its pending operands on lists, but
# `evaluate`, the engine's `_masks` and `repr` recurse, one or two stack
# frames per connective, so formulas at most this deep stay well inside
# Python's default recursion limit of 1000.
MAX_DEPTH = 100
_TOO_DEEP = f"formula nested deeper than {MAX_DEPTH} levels"


def _error(text: str, tokens: list[str], index: int, message: str) -> ParseError:
    """`message` at token `index`, unless some character starts no token:
    that one is reported, wherever it is.  Positions are counted only here,
    on the way out."""
    for at, tok in enumerate(tokens[:-1]):
        if tok not in ("->", "~", "|", "&", "(", ")") and not "a" <= tok < "{":
            index, message = at, f"unexpected character {tok!r}"
            break
    if index == len(tokens) - 1:
        return ParseError(message, len(text))
    starts = [match.start() for match in _TOKEN_RE.finditer(text)]
    return ParseError(message, starts[index])


def _check_text(text: object) -> None:
    if not isinstance(text, str):
        raise ParseError(f"formula text must be a string, not {type(text).__name__}", 0)


def parse(text: str) -> Formula:
    """Parse formula text into an AST.

    Raises ParseError on text that is not a string or is malformed, and on
    formulas, or parentheses, nested deeper than MAX_DEPTH.

    One operator-precedence loop: each operand, a letter or a parenthesised
    formula under its '~' prefix, completes the connectives waiting for it,
    at once for '&' and '|' (both associate to the left) and for '->' (to
    the right) when its chain ends.  Every node built is checked against
    MAX_DEPTH, so nothing deeper is built.
    """
    _check_text(text)
    tokens = _TOKEN_RE.findall(text)
    if not text.isascii():
        tokens = [_ALIASES.get(tok, tok) for tok in tokens]
    tokens.append("")  # the sentinel spares lookahead a bounds check
    seen: dict[str, Letter] = {}  # one Letter per name
    outer = []  # for each open parenthesis, the state of the level around it
    # this level's operands waiting on their right operand: the chain of
    # '->', and the left ones of a '|' and an '&'
    imps: list[Formula] = []
    dis = con = None
    i = 0
    while True:
        start = i
        while tokens[i] == "~":
            i += 1
        negs = i - start
        tok = tokens[i]
        if tok == "(":
            if len(outer) == MAX_DEPTH:
                raise _error(text, tokens, i, _TOO_DEEP)
            outer.append((negs, imps, dis, con))
            imps, dis, con = [], None, None
            i += 1
            continue
        if not "a" <= tok < "{":  # a letter token starts with a-z
            raise _error(text, tokens, i, "expected a letter or '('")
        f = seen.get(tok)
        if f is None:
            f = seen[tok] = Letter(tok)
        i += 1
        while True:  # f is an operand under `negs` negations, just read
            if f.depth + negs > MAX_DEPTH:
                raise _error(text, tokens, i, _TOO_DEEP)
            for _ in range(negs):
                f = Neg(f)
            if con is not None:
                f, con = And(con, f), None
                if f.depth > MAX_DEPTH:
                    raise _error(text, tokens, i, _TOO_DEEP)
            tok = tokens[i]
            if tok == "&":
                con = f
                break
            if dis is not None:
                f, dis = Or(dis, f), None
                if f.depth > MAX_DEPTH:
                    raise _error(text, tokens, i, _TOO_DEEP)
            if tok == "|":
                dis = f
                break
            if tok == "->":
                imps.append(f)
                break
            while imps:
                f = Imp(imps.pop(), f)
                if f.depth > MAX_DEPTH:
                    raise _error(text, tokens, i, _TOO_DEEP)
            if not outer:
                if tok:
                    raise _error(text, tokens, i, f"unexpected token {tok!r}")
                return f
            if tok != ")":
                raise _error(text, tokens, i, "expected ')'")
            negs, imps, dis, con = outer.pop()
            i += 1
        i += 1  # past the connective


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
        _check_text(text)
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

