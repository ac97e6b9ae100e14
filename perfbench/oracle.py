"""Reference answers for the benchmark, written without paramat's evaluator.

Nothing here imports paramat.  Formulas are nested tuples::

    ("var", name) | ("~", f) | ("|", a, b) | ("&", a, b) | ("->", a, b)

Matrices are integer-indexed tables built from the textbook definitions, and
a formula is evaluated once per letter domain into a bit-sliced truth vector:
entry v of the vector has bit i set when the formula takes value v at
valuation i.  Valuations are numbered as paramat enumerates them (letters in
sorted order, the first letter most significant, values ascending), so bit
positions are valuation positions.  Subset questions are answered by brute
force over all subsets, and depth 2 by an OR-over-subsets pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from formulas import column_selector, parse

# ---------------------------------------------------------------------------
# Formula letters


def letters(f: tuple) -> set[str]:
    if f[0] == "var":
        return {f[1]}
    out: set[str] = set()
    for child in f[1:]:
        out |= letters(child)
    return out


def letters_of(formulas) -> set[str]:
    out: set[str] = set()
    for f in formulas:
        out |= letters(f)
    return out


def fresh_letter(used: set[str]) -> tuple:
    i = 0
    while f"fresh{i}" in used:
        i += 1
    return ("var", f"fresh{i}")


# ---------------------------------------------------------------------------
# Matrices


@dataclass(frozen=True)
class RefMatrix:
    name: str
    values: tuple[Fraction, ...]
    designated: frozenset[int]
    neg: tuple[int, ...]
    tables: dict  # connective -> tuple of rows, tables[op][a][b] = value index

    @property
    def n(self) -> int:
        return len(self.values)


def _matrix(name, values, neg, imp) -> RefMatrix:
    index = {v: i for i, v in enumerate(values)}
    rows = lambda fn: tuple(tuple(index[fn(x, y)] for y in values) for x in values)
    return RefMatrix(
        name=name,
        values=tuple(values),
        designated=frozenset({index[Fraction(1)]}),
        neg=tuple(index[neg(x)] for x in values),
        tables={"|": rows(max), "&": rows(min), "->": rows(imp)},
    )


def _spaced(n: int) -> list[Fraction]:
    return [Fraction(i, n - 1) for i in range(n)]


def lukasiewicz(n: int) -> RefMatrix:
    return _matrix(f"L{n}", _spaced(n), lambda x: 1 - x, lambda x, y: min(Fraction(1), 1 - x + y))


def goedel(n: int) -> RefMatrix:
    return _matrix(
        f"G{n}",
        _spaced(n),
        lambda x: Fraction(1) if x == 0 else Fraction(0),
        lambda x, y: Fraction(1) if x <= y else y,
    )


def kleene3() -> RefMatrix:
    return _matrix("K3", _spaced(3), lambda x: 1 - x, lambda x, y: max(1 - x, y))


MATRICES = {
    "l3": lukasiewicz(3),
    "g3": goedel(3),
    "k3": kleene3(),
    "ln:4": lukasiewicz(4),
    "gn:4": goedel(4),
}


# ---------------------------------------------------------------------------
# Bit-sliced truth vectors


def _repeat(block: int, period: int, count: int) -> int:
    """`block` copied `count` times at a stride of `period` bits."""
    return block * (((1 << (period * count)) - 1) // ((1 << period) - 1))


class Domain:
    """Truth vectors of formulas over one sorted letter domain of one matrix."""

    def __init__(self, m: RefMatrix, names):
        self.m = m
        self.names = sorted(set(names))
        n, k = m.n, len(self.names)
        self.size = n**k
        self.full = (1 << self.size) - 1
        self._letter = {}
        for j, name in enumerate(self.names):
            stride = n ** (k - 1 - j)
            ones = (1 << stride) - 1
            self._letter[name] = tuple(
                _repeat(ones << (v * stride), n * stride, n**j) for v in range(n)
            )
        self._pairs = {
            op: [[(a, b) for a in range(n) for b in range(n) if rows[a][b] == v] for v in range(n)]
            for op, rows in m.tables.items()
        }
        self._memo: dict[tuple, tuple[int, ...]] = {}

    def vector(self, f: tuple) -> tuple[int, ...]:
        got = self._memo.get(f)
        if got is not None:
            return got
        op, n = f[0], self.m.n
        if op == "var":
            out = self._letter[f[1]]
        elif op == "~":
            child = self.vector(f[1])
            cells = [0] * n
            for a in range(n):
                cells[self.m.neg[a]] |= child[a]
            out = tuple(cells)
        else:
            left, right = self.vector(f[1]), self.vector(f[2])
            out = tuple(
                _or_all(left[a] & right[b] for a, b in pairs) for pairs in self._pairs[op]
            )
        self._memo[f] = out
        return out

    def designated(self, f: tuple) -> int:
        vec = self.vector(f)
        return _or_all(vec[d] for d in self.m.designated)

    def models(self, gamma) -> int:
        out = self.full
        for g in gamma:
            out &= self.designated(g)
        return out

    def valuation(self, position: int) -> dict[str, Fraction]:
        """The valuation at `position` in paramat's enumeration order."""
        out = {}
        for name in reversed(self.names):
            position, digit = divmod(position, self.m.n)
            out[name] = self.m.values[digit]
        return out


def _or_all(masks) -> int:
    out = 0
    for mask in masks:
        out |= mask
    return out


def point_value(m: RefMatrix, f: tuple, valuation: dict[str, int]) -> int:
    """Value index of `f` at one valuation given as letter -> value index."""
    op = f[0]
    if op == "var":
        return valuation[f[1]]
    if op == "~":
        return m.neg[point_value(m, f[1], valuation)]
    return m.tables[op][point_value(m, f[1], valuation)][point_value(m, f[2], valuation)]


# ---------------------------------------------------------------------------
# Single queries


def entails(m: RefMatrix, gamma, alpha) -> tuple[bool, int | None]:
    """(holds, position of the first countermodel or None)."""
    dom = Domain(m, letters_of([*gamma, alpha]))
    bad = dom.models(gamma) & ~dom.designated(alpha) & dom.full
    if bad:
        return False, (bad & -bad).bit_length() - 1
    return True, None


def is_countermodel(m: RefMatrix, gamma, alpha, valuation) -> bool:
    """Does `valuation` (letter -> value) cover the query and refute it?"""
    if set(valuation) != letters_of([*gamma, alpha]):
        return False
    index = {v: i for i, v in enumerate(m.values)}
    if any(v not in index for v in valuation.values()):
        return False
    point = {name: index[v] for name, v in valuation.items()}
    return all(point_value(m, g, point) in m.designated for g in gamma) and (
        point_value(m, alpha, point) not in m.designated
    )


def is_consistent(m: RefMatrix, gamma) -> bool:
    return Domain(m, letters_of(gamma)).models(gamma) != 0


def classify(m: RefMatrix, alpha) -> str:
    dom = Domain(m, letters(alpha))
    designated = dom.designated(alpha)
    if designated == dom.full:
        return "tautology"
    if designated:
        return "contingent"
    zero = m.values.index(Fraction(0)) if Fraction(0) in m.values else None
    if zero is not None and zero not in m.designated and dom.vector(alpha)[zero] == dom.full:
        return "contradiction"
    return "unsatisfiable_nondegenerate"


# ---------------------------------------------------------------------------
# Subset queries (premises as a list in paramat's canonical order)


def _entailing_subsets(dom: Domain, gamma, target: int):
    """Bitsets of the consistent subsets of `gamma` whose models all lie in
    `target`, in ascending order, found by brute force over all subsets."""
    masks = [dom.designated(g) for g in gamma]
    mods = [dom.full] * (1 << len(gamma))
    for t in range(len(mods)):
        if t:
            low = t & -t
            mods[t] = mods[t ^ low] & masks[low.bit_length() - 1]
        if mods[t] and not mods[t] & ~target:
            yield t


def _subset_models(dom: Domain, gamma) -> list[int]:
    """Models mask of every subset of `gamma`, indexed by subset bitset."""
    masks = [dom.designated(g) for g in gamma]
    out = [dom.full] * (1 << len(gamma))
    for t in range(1, len(out)):
        low = t & -t
        out[t] = out[t ^ low] & masks[low.bit_length() - 1]
    return out


def para_entails(m: RefMatrix, gamma, alpha) -> bool:
    """Does some consistent subset of `gamma` entail `alpha`?"""
    dom = Domain(m, letters_of([*gamma, alpha]))
    return next(_entailing_subsets(dom, gamma, dom.designated(alpha)), None) is not None


def least_witness_size(m: RefMatrix, gamma, alpha) -> int | None:
    """Size of the smallest consistent subset entailing `alpha`, if any."""
    dom = Domain(m, letters_of([*gamma, alpha]))
    return min(
        (bin(t).count("1") for t in _entailing_subsets(dom, gamma, dom.designated(alpha))),
        default=None,
    )


def witness_ok(m: RefMatrix, gamma, alpha, witness) -> bool:
    """`witness` is a consistent subset of `gamma` of least size entailing `alpha`."""
    if len(witness) != least_witness_size(m, gamma, alpha) or not set(witness) <= set(gamma):
        return False
    return is_consistent(m, witness) and entails(m, witness, alpha)[0]


def maximal_consistent_subsets(m: RefMatrix, gamma) -> set[frozenset]:
    n = len(gamma)
    mods = _subset_models(Domain(m, letters_of(gamma)), gamma)
    return {
        frozenset(gamma[i] for i in range(n) if t >> i & 1)
        for t in range(1 << n)
        if mods[t] and not any(not t >> i & 1 and mods[t | 1 << i] for i in range(n))
    }


def is_para_consistent(m: RefMatrix, gamma) -> bool:
    return not para_entails(m, gamma, fresh_letter(letters_of(gamma)))


def _some_subset(flags: list[bool], n: int) -> list[bool]:
    """out[s] = some t subset of s has flags[t] (OR over subsets, n * 2^n steps)."""
    out = list(flags)
    for i in range(n):
        bit = 1 << i
        for s in range(1 << n):
            if s & bit and out[s ^ bit]:
                out[s] = True
    return out


def logic_entails(m: RefMatrix, gamma, alpha, depth: int) -> bool:
    """Entailment after `depth` applications of the consistent-subset transform."""
    if depth == 0:
        return entails(m, gamma, alpha)[0]
    if depth == 1:
        return para_entails(m, gamma, alpha)
    n = len(gamma)
    fresh = fresh_letter(letters_of([*gamma, alpha]))
    dom = Domain(m, letters_of([*gamma, alpha, fresh]))
    mods = _subset_models(dom, gamma)

    def depth1(target: int) -> list[bool]:
        return _some_subset([bool(x) and not x & ~target for x in mods], n)

    yields_alpha = depth1(dom.designated(alpha))
    yields_fresh = depth1(dom.designated(fresh))
    return any(a and not f for a, f in zip(yields_alpha, yields_fresh))


# ---------------------------------------------------------------------------
# Audit evidence and the expected grid

GRID_COLUMNS = ("L3", "P(L3)", "G3", "P(G3)", "K3", "P(K3)")

# The published results table, one string per row in column order
# L3 P(L3) G3 P(G3) K3 P(K3); "+" holds, "-" fails.
PUBLISHED = {
    "explosive": "+-+-+-",
    "joint_consistency": "++++++",
    "conjunctive_property": "+-+-+-",
    "paraconsistent": "-+-+-+",
    "inconsistent_sets_exist": "+-+-+-",
    "p_idempotent": "++++++",
    "inclusion": "+-+-+-",
    "monotonicity": "++++++",
    "idempotency": "+-+-+-",
    "transitivity": "+-+-+-",
    "weak_transitivity": "++++++",
    "modus_ponens": "+-+-+-",
    "full_dt": "--+---",
    "modified_full_dt": "+++---",
    "weak_dt_fwd": "--++--",
    "modified_weak_dt_fwd": "++++--",
}

# Cells where the published value is wrong: after the transform no finite set
# is inconsistent, so joint consistency fails in every P column, and the
# converse of the modified full deduction theorem has a P(L3) countermodel.
FLIPPED = {
    ("joint_consistency", "P(L3)"),
    ("joint_consistency", "P(G3)"),
    ("joint_consistency", "P(K3)"),
    ("modified_full_dt", "P(L3)"),
}


def expected_grid() -> dict[str, str]:
    """Cell "<property>/<column>" -> "HOLDS" or "FAILS"."""
    out = {}
    for prop, marks in PUBLISHED.items():
        for col, mark in zip(GRID_COLUMNS, marks):
            holds = (mark == "+") != ((prop, col) in FLIPPED)
            out[f"{prop}/{col}"] = "HOLDS" if holds else "FAILS"
    return out


def column_matrix(column: str) -> RefMatrix:
    return MATRICES[column_selector(column)]


def replay_claim(m: RefMatrix, claim: dict) -> bool:
    """Recompute one audit claim with the reference semantics."""
    kind = claim["kind"]
    gamma = [parse(s) for s in claim.get("gamma", ())]
    if kind in ("entails", "para_entails", "logic_entails"):
        depth = {"entails": 0, "para_entails": 1}.get(kind, claim.get("depth"))
        got = logic_entails(m, gamma, parse(claim["alpha"]), depth)
    elif kind == "consistent":
        got = is_consistent(m, gamma)
    elif kind == "para_consistent":
        got = is_para_consistent(m, gamma)
    elif kind == "classify":
        got = classify(m, parse(claim["alpha"]))
    elif kind == "consistent_subsets":
        names = claim["gamma"]
        got = [
            [names[i] for i in combo]
            for size in range(len(gamma) + 1)
            for combo in combinations(range(len(gamma)), size)
            if is_consistent(m, [gamma[i] for i in combo])
        ]
    elif kind == "star_property":
        got = all(m.neg[d] not in m.designated for d in m.designated)
    elif kind == "eval":
        index = {v: i for i, v in enumerate(m.values)}
        point = {k: index[Fraction(v)] for k, v in claim["valuation"].items()}
        got = str(m.values[point_value(m, parse(claim["formula"]), point)])
    elif kind == "tautology_free":
        got = _stays_half(m, claim["depth"])
    else:
        return False
    return got == claim["expected"]


def _stays_half(m: RefMatrix, depth: int) -> bool:
    """Do all formulas up to `depth` take 1/2 when every letter does?"""
    reach = {m.values.index(Fraction(1, 2))}
    for _ in range(depth):
        reach |= {m.neg[a] for a in reach}
        for rows in m.tables.values():
            reach |= {rows[a][b] for a in reach for b in reach}
    return reach == {m.values.index(Fraction(1, 2))}
