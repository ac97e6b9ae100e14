"""Parser, printer, and formula-generator tests."""

import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from paramat.formula import (
    MAX_DEPTH,
    And,
    FormulaSet,
    Imp,
    Letter,
    Neg,
    Or,
    ParseError,
    depth,
    draw_formula,
    enumerate_formulas,
    letters,
    parse,
    render,
)
from paramat.matrix import builtin
from paramat.semantics import Classification, classify

P, Q = Letter("p"), Letter("q")
L3 = builtin("l3")

# each shape nested k levels deep
_NESTS = {
    "neg": lambda k: "~" * k + "p",
    "parens": lambda k: "(" * k + "p" + ")" * k,
    "neg-parens": lambda k: "~(" * k + "p" + ")" * k,
    "or": lambda k: " | ".join(["p"] * (k + 1)),
    "and": lambda k: " & ".join(["p"] * (k + 1)),
    "imp": lambda k: " -> ".join(["p"] * (k + 1)),
}


class TestParse:
    def test_letter(self):
        assert parse("p") == P
        assert parse("long_name2") == Letter("long_name2")

    def test_connectives(self):
        assert parse("~p") == Neg(P)
        assert parse("p | q") == Or(P, Q)
        assert parse("p & q") == And(P, Q)
        assert parse("p -> q") == Imp(P, Q)

    def test_precedence(self):
        # ~ binds tighter than &, & tighter than |, | tighter than ->
        assert parse("~p & q") == And(Neg(P), Q)
        assert parse("p & q | p") == Or(And(P, Q), P)
        assert parse("p | q -> p") == Imp(Or(P, Q), P)

    def test_imp_right_associative(self):
        assert parse("p -> q -> p") == Imp(P, Imp(Q, P))

    def test_left_associative_binaries(self):
        r = Letter("r")
        assert parse("p | q | r") == Or(Or(P, Q), r)
        assert parse("p & q & r") == And(And(P, Q), r)

    def test_parentheses(self):
        assert parse("(p -> q) -> p") == Imp(Imp(P, Q), P)
        assert parse("~(p | q)") == Neg(Or(P, Q))

    def test_unicode_aliases(self):
        assert parse("¬p ∨ q") == Or(Neg(P), Q)
        assert parse("p ∧ q → p") == Imp(And(P, Q), P)

    def test_double_negation(self):
        assert parse("~~p") == Neg(Neg(P))

    @pytest.mark.parametrize(
        "text", ["", "p |", "-> p", "(p", "p)", "p q", "P", "p & & q"]
    )
    def test_errors(self, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: parse(5),
            lambda: parse(None),
            lambda: parse(b"p"),
            lambda: FormulaSet.from_text(5),
        ],
        ids=["int", "None", "bytes", "from_text-int"],
    )
    def test_non_string_text(self, call):
        with pytest.raises(ParseError, match="must be a string") as exc:
            call()
        assert exc.value.position == 0

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("p | *")
        assert exc.value.position == 4

    @pytest.mark.parametrize("nest", _NESTS.values(), ids=_NESTS.keys())
    def test_depth_limit(self, nest):
        f = parse(nest(MAX_DEPTH))
        assert parse(render(f)) == f
        assert letters(f) == {"p"}
        assert depth(f) <= MAX_DEPTH
        with pytest.raises(ParseError, match="nested deeper than"):
            parse(nest(MAX_DEPTH + 1))


# The parser as it was before tokenizing became one `findall`: one match per
# token, positions counted up front, and five recursive rules.  Kept here as
# the reference that `parse` must agree with, on results and on errors.
_REF_TOKEN_RE = re.compile(r"->|→|[~¬|∨&∧()]|[a-z][a-zA-Z0-9_]*")
_REF_ALIASES = {"→": "->", "¬": "~", "∨": "|", "∧": "&"}


def _ref_tokenize(text):
    kinds, positions = [], []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kinds.append(_REF_ALIASES.get(m.group(), m.group()))
        positions.append(pos)
        pos = m.end()
    kinds.append(None)
    return kinds, positions


class _RefParser:
    def __init__(self, text):
        self.text = text
        self.kinds, self.positions = _ref_tokenize(text)
        self.index = 0
        self.open_parens = 0

    def pos(self):
        if self.index < len(self.positions):
            return self.positions[self.index]
        return len(self.text)

    def too_deep(self):
        return ParseError(f"formula nested deeper than {MAX_DEPTH} levels", self.pos())

    def bounded(self, f):
        if f.depth > MAX_DEPTH:
            raise self.too_deep()
        return f

    def imp(self):
        operands = [self.dis()]
        while self.kinds[self.index] == "->":
            self.index += 1
            operands.append(self.dis())
        f = operands.pop()
        for left in reversed(operands):
            f = self.bounded(Imp(left, f))
        return f

    def dis(self):
        f = self.con()
        while self.kinds[self.index] == "|":
            self.index += 1
            f = self.bounded(Or(f, self.con()))
        return f

    def con(self):
        f = self.neg()
        while self.kinds[self.index] == "&":
            self.index += 1
            f = self.bounded(And(f, self.neg()))
        return f

    def neg(self):
        start = self.index
        while self.kinds[self.index] == "~":
            self.index += 1
        count = self.index - start
        f = self.atom()
        if f.depth + count > MAX_DEPTH:
            raise self.too_deep()
        for _ in range(count):
            f = Neg(f)
        return f

    def atom(self):
        tok = self.kinds[self.index]
        if tok == "(":
            if self.open_parens == MAX_DEPTH:
                raise self.too_deep()
            self.open_parens += 1
            self.index += 1
            f = self.imp()
            if self.kinds[self.index] != ")":
                raise ParseError("expected ')'", self.pos())
            self.index += 1
            self.open_parens -= 1
            return f
        if tok is not None and tok[0].isalpha():
            self.index += 1
            return Letter(tok)
        raise ParseError("expected a letter or '('", self.pos())


def _ref_parse(text):
    parser = _RefParser(text)
    f = parser.imp()
    if parser.index != len(parser.positions):
        tok = parser.kinds[parser.index]
        raise ParseError(f"unexpected token {tok!r}", parser.pos())
    return f


def _outcome(parse_text, text):
    """The parsed text, or the error's message and position."""
    try:
        return parse_text(text).text
    except ParseError as e:
        return str(e), e.position


# tokens, their Unicode aliases, whitespace (NBSP too), and characters that
# start no token or only part of one
_ALPHABET = [
    "p", "q", "r", "x1", "~", "|", "&", "->", "(", ")", "¬", "∨", "∧", "→",
    " ", "\t", "\xa0", "-", ">", "A", "1", "_", "é", ",", "$",
]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=24).map("".join))
def test_parse_agrees_with_the_reference_parser(text):
    assert _outcome(parse, text) == _outcome(_ref_parse, text)


@pytest.mark.parametrize("tail", ["", " ", " q", ")", " $"])
@pytest.mark.parametrize("levels", [MAX_DEPTH, MAX_DEPTH + 1])
@pytest.mark.parametrize("nest", _NESTS.values(), ids=_NESTS.keys())
def test_deep_shapes_agree_with_the_reference_parser(nest, levels, tail):
    text = nest(levels) + tail
    assert _outcome(parse, text) == _outcome(_ref_parse, text)


def _depth_in_use():
    """The recursion depth here, as the recursion limit counts it: the limit
    less the nested calls still allowed."""

    def down(n):
        try:
            return down(n + 1)
        except RecursionError:
            return n

    return sys.getrecursionlimit() - down(0)


@pytest.mark.parametrize("shape", ["parens", "neg-parens"])
def test_parentheses_cost_three_frames_a_level(shape):
    # the budget the MAX_DEPTH comment states, and a few frames for the calls
    # made at the innermost level
    text = _NESTS[shape](MAX_DEPTH)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth_in_use() + 3 * MAX_DEPTH + 10)
    try:
        f = parse(text)
        again = parse(render(f))
        kind = classify(L3, f)
    finally:
        sys.setrecursionlimit(limit)
    assert again == f and kind is Classification.CONTINGENT


class TestRender:
    @pytest.mark.parametrize(
        "text",
        [
            "p",
            "~p",
            "~~p",
            "~(p | q)",
            "p & q | p",
            "(p | q) & p",
            "p -> q -> p",
            "(p -> q) -> p",
            "p | (q | p)",
            "p & (q & p)",
            "~(p -> p)",
        ],
    )
    def test_minimal_parens_fixpoint(self, text):
        f = parse(text)
        assert render(f) == text
        assert parse(render(f)) == f

    def test_str_is_render(self):
        f = parse("p -> ~q")
        assert str(f) == "p -> ~q"


def formula_strategy(names=("p", "q", "r")):
    leaves = st.sampled_from([Letter(n) for n in names])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(Or, inner, inner),
            st.builds(And, inner, inner),
            st.builds(Imp, inner, inner),
        ),
        max_leaves=25,
    )


@given(formula_strategy())
def test_parse_render_roundtrip(f):
    assert parse(render(f)) == f


@given(formula_strategy())
def test_letters_subset(f):
    assert letters(f) <= {"p", "q", "r"}
    assert letters(f)


@given(formula_strategy())
def test_cached_text_is_invisible(f):
    fresh = parse(render(f))  # an equal tree built separately, by the parser
    assert render(f) == render(f) == render(fresh)
    assert f == fresh and fresh == f
    assert hash(f) == hash(fresh)
    assert repr(f) == repr(fresh)


# Reference walks: the recursive printer, letters and depth that the
# constructors' eager fields replace, kept here to check those fields.
_PREC = {Imp: 1, Or: 2, And: 3}


def _ref_render(f):
    if isinstance(f, Letter):
        return f.name
    if isinstance(f, Neg):
        inner = _ref_render(f.child)
        return "~" + inner if isinstance(f.child, (Letter, Neg)) else "~(" + inner + ")"
    prec = _PREC[type(f)]
    left, right = _ref_render(f.left), _ref_render(f.right)
    left_prec, right_prec = _PREC.get(type(f.left), 4), _PREC.get(type(f.right), 4)
    if isinstance(f, Imp):  # right-associative
        wrap_left, wrap_right = left_prec <= prec, right_prec < prec
    else:  # left-associative
        wrap_left, wrap_right = left_prec < prec, right_prec <= prec
    left = "(" + left + ")" if wrap_left else left
    right = "(" + right + ")" if wrap_right else right
    return left + {Imp: " -> ", Or: " | ", And: " & "}[type(f)] + right


def _ref_letters(f):
    if isinstance(f, Letter):
        return {f.name}
    if isinstance(f, Neg):
        return _ref_letters(f.child)
    return _ref_letters(f.left) | _ref_letters(f.right)


def _ref_depth(f):
    if isinstance(f, Letter):
        return 0
    if isinstance(f, Neg):
        return 1 + _ref_depth(f.child)
    return 1 + max(_ref_depth(f.left), _ref_depth(f.right))


def _same_tree(f, g):
    if type(f) is not type(g):
        return False
    if isinstance(f, Letter):
        return f.name == g.name
    if isinstance(f, Neg):
        return _same_tree(f.child, g.child)
    return _same_tree(f.left, g.left) and _same_tree(f.right, g.right)


def _rebuilt(f):
    """An equal tree that shares no node with `f`."""
    if isinstance(f, Letter):
        return Letter(f.name)
    if isinstance(f, Neg):
        return Neg(_rebuilt(f.child))
    return type(f)(_rebuilt(f.left), _rebuilt(f.right))


_NAMES = ("p", "q", "r", "long_name2")
_built = formula_strategy(_NAMES)
_any_formula = st.one_of(
    _built,
    _built.map(lambda f: parse(_ref_render(f))),
    st.builds(
        draw_formula, st.randoms(use_true_random=False), st.just(list(_NAMES)),
        st.integers(0, 5),
    ),
)


@given(_any_formula, _any_formula)
def test_eager_fields_match_the_reference_walks(f, g):
    for h in (f, g):
        assert render(h) == str(h) == _ref_render(h)
        assert letters(h) == _ref_letters(h)
        assert isinstance(letters(h), frozenset)
        assert depth(h) == _ref_depth(h)
        assert parse(render(h)) == h
        copy = _rebuilt(h)
        assert copy == h and hash(copy) == hash(h)
    assert (f == g) == _same_tree(f, g)
    assert (f != g) == (not _same_tree(f, g))
    if f == g:
        assert hash(f) == hash(g)


_DEEP = 10_000


class TestDeepFormulasBuiltInCode:
    """Nothing but the constructors runs on a node, so deep formulas built
    in code need no recursion; the parser would refuse them."""

    def test_negations(self):
        def chain(name):
            f = Letter(name)
            for _ in range(_DEEP):
                f = Neg(f)
            return f

        f, g, other = chain("p"), chain("p"), chain("q")
        assert render(f) == "~" * _DEEP + "p"
        assert letters(f) == {"p"}
        assert depth(f) == _DEEP
        assert f == g and hash(f) == hash(g)
        assert f != other

    def test_right_nested_implications(self):
        # each node keeps its text, so this chain alone holds about 250 MB
        # of text: one chain, compared with a new node over its subtree
        p = Letter("p")
        f = p
        for _ in range(_DEEP):
            f = Imp(p, f)
        assert render(f) == "p -> " * _DEEP + "p"
        assert letters(f) == {"p"}
        assert depth(f) == _DEEP
        assert f == Imp(p, f.right) and hash(f) == hash(Imp(p, f.right))
        assert f != f.right and f != Imp(f.right, p)


@given(st.lists(formula_strategy(), max_size=8), st.randoms(use_true_random=False))
def test_formula_set_dedupes_by_text(xs, rnd):
    # equal formulas as distinct objects, some already rendered, in any order
    drawn = [*xs, *(parse(render(x)) for x in xs[::2])]
    rnd.shuffle(drawn)
    assert FormulaSet(drawn).formulas == tuple(sorted(set(drawn), key=render))


class TestEnumerate:
    def test_counts_one_letter(self):
        # depth-level sizes over one letter: 1, then 4, then 76
        assert len(list(enumerate_formulas(["p"], 0))) == 1
        assert len(list(enumerate_formulas(["p"], 1))) == 5
        assert len(list(enumerate_formulas(["p"], 2))) == 81

    def test_counts_two_letters(self):
        assert len(list(enumerate_formulas(["p", "q"], 1))) == 16
        assert len(list(enumerate_formulas(["p", "q"], 2))) == 786

    def test_closed_form(self):
        # independent recurrence: level k+1 counts the negations of level k
        # plus, for each of the 3 binaries, the pairs touching level k
        level_sizes = [2]
        cumulative = [2]
        for _ in range(3):
            prev_cum = cumulative[-1]
            prev_level = level_sizes[-1]
            nxt = prev_level + 3 * (prev_cum**2 - (prev_cum - prev_level) ** 2)
            level_sizes.append(nxt)
            cumulative.append(prev_cum + nxt)
        assert len(list(enumerate_formulas(["p", "q"], 2))) == cumulative[2]
        assert len(list(enumerate_formulas(["p", "q"], 3))) == cumulative[3]

    def test_unique_and_depth_bounded(self):
        out = list(enumerate_formulas(["p", "q"], 2))
        assert len(set(out)) == len(out)
        assert all(depth(f) <= 2 for f in out)

    def test_levels_have_exact_depth(self):
        out = list(enumerate_formulas(["p"], 2))
        assert [depth(f) for f in out] == [0] + [1] * 4 + [2] * 76

    def test_empty_names_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_formulas([], 2))


class TestDepth:
    def test_examples(self):
        assert depth(P) == 0
        assert depth(parse("~p")) == 1
        assert depth(parse("~(p -> p)")) == 2
        assert depth(parse("p & q | p")) == 2


class TestFormulaSet:
    def test_canonical_order_and_dedupe(self):
        s = FormulaSet([Q, P, Q])
        assert list(s) == [P, Q]
        assert len(s) == 2

    def test_from_text(self):
        assert FormulaSet.from_text("p, ~p") == FormulaSet([P, Neg(P)])
        assert FormulaSet.from_text("") == FormulaSet()
        assert FormulaSet.from_text("   ") == FormulaSet()

    def test_letters_and_union(self):
        s = FormulaSet.from_text("p | q, ~p")
        assert s.letters() == {"p", "q"}
        assert len(s.union([Letter("r")])) == 3

    def test_str(self):
        assert str(FormulaSet([Neg(P), P])) == "{p, ~p}"

    def test_hash_eq(self):
        assert FormulaSet([P, Q]) == FormulaSet([Q, P])
        assert hash(FormulaSet([P, Q])) == hash(FormulaSet([Q, P]))


class TestRandom:
    def test_depth_bound(self):
        rng = random.Random(0)
        for _ in range(200):
            assert depth(draw_formula(rng, ["p", "q"], 3)) <= 3
