"""Logical matrices over exact rational truth values.

Built-ins: the three-valued systems L3 (Lukasiewicz), G3 (Goedel),
K3 (strong Kleene) and the classical two-valued matrix CL2, plus the
parametric n-valued families `lukasiewicz(n)` and `goedel(n)`.  Matrices can
also be loaded from a strict JSON file format (see `load_matrix`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Mapping

Value = Fraction

BUILTIN_NAMES = ("l3", "g3", "k3", "cl2")

# The most values a matrix may have.  The evaluation engine's blocks hold its
# square, so the valuations over two letters always fit in one block.
MAX_VALUES = 64

_VALUE_TOKEN_RE = re.compile(r"-?\d+(/\d+)?")


class MatrixError(ValueError):
    """Structurally invalid matrix or matrix document."""


def parse_value(token: str) -> Value:
    """Parse a reduced-rational value token such as "0", "1" or "1/2"."""
    if not isinstance(token, str) or not _VALUE_TOKEN_RE.fullmatch(token):
        raise MatrixError(f"value token not a rational: {token!r}")
    try:
        value = Fraction(token)
    except ZeroDivisionError as exc:
        raise MatrixError(f"value token not a rational: {token!r}") from exc
    if format_value(value) != token:
        raise MatrixError(f"value token not reduced: {token!r}")
    return value


def format_value(value: Value) -> str:
    return str(value)


def _derived():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Matrix:
    """A logical matrix: values, designated values, and connective tables.

    A matrix is validated when it is built.  Its values then also have
    indices 0..n-1, in the order of `values`, and the ``*_ix`` fields hold
    the same tables over those indices; the semantics computes with these,
    so `Fraction` values are needed only at the edges (parsing, printing,
    JSON and the valuations handed back to callers).  `memo` is the
    semantics engine's bounded cache for this matrix, filled in place.
    """

    name: str
    values: tuple[Value, ...]
    designated: frozenset[Value]
    neg: dict[Value, Value]
    or_: dict[tuple[Value, Value], Value]
    and_: dict[tuple[Value, Value], Value]
    imp: dict[tuple[Value, Value], Value]
    designated_ix: tuple[int, ...] = _derived()
    neg_ix: tuple[int, ...] = _derived()
    or_ix: tuple[tuple[int, ...], ...] = _derived()
    and_ix: tuple[tuple[int, ...], ...] = _derived()
    imp_ix: tuple[tuple[int, ...], ...] = _derived()
    memo: dict = _derived()

    def __post_init__(self) -> None:
        self.validate()
        index = {x: i for i, x in enumerate(self.values)}

        def binary(table):
            return tuple(
                tuple(index[table[(x, y)]] for y in self.values) for x in self.values
            )

        derived = {
            "designated_ix": tuple(index[x] for x in self.values if x in self.designated),
            "neg_ix": tuple(index[self.neg[x]] for x in self.values),
            "or_ix": binary(self.or_),
            "and_ix": binary(self.and_),
            "imp_ix": binary(self.imp),
            "memo": {},
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def validate(self) -> None:
        if len(self.values) > MAX_VALUES:
            raise MatrixError(f"a matrix has at most {MAX_VALUES} values")
        value_set = set(self.values)
        if len(self.values) != len(value_set) or not self.values:
            raise MatrixError("values must be a nonempty set of distinct rationals")
        if tuple(sorted(self.values)) != self.values:
            raise MatrixError("values must be listed in ascending order")
        if not self.designated:
            raise MatrixError("designated must be nonempty")
        if not self.designated < value_set:
            raise MatrixError("designated must be a proper subset of values")
        if set(self.neg) != value_set:
            raise MatrixError("table not total: neg")
        pair_keys = {(x, y) for x in self.values for y in self.values}
        for label, table in (("or", self.or_), ("and", self.and_), ("imp", self.imp)):
            if set(table) != pair_keys:
                raise MatrixError(f"table not total: {label}")
            if not set(table.values()) <= value_set:
                raise MatrixError(f"table not closed: {label}")
        if not set(self.neg.values()) <= value_set:
            raise MatrixError("table not closed: neg")

    def same_tables(self, other: "Matrix") -> bool:
        """Table-for-table identity, ignoring the display name."""
        return (
            self.values == other.values
            and self.designated == other.designated
            and self.neg == other.neg
            and self.or_ == other.or_
            and self.and_ == other.and_
            and self.imp == other.imp
        )


def _build(name, values, designated, fneg, fimp) -> Matrix:
    values = tuple(sorted(values))
    return Matrix(
        name=name,
        values=values,
        designated=frozenset(designated),
        neg={x: fneg(x) for x in values},
        or_={(x, y): max(x, y) for x in values for y in values},
        and_={(x, y): min(x, y) for x in values for y in values},
        imp={(x, y): fimp(x, y) for x in values for y in values},
    )


def _evenly_spaced(n: int) -> list[Value]:
    return [Fraction(i, n - 1) for i in range(n)]


def lukasiewicz(n: int) -> Matrix:
    """The n-valued Lukasiewicz matrix: evenly spaced values in [0, 1], D = {1}."""
    if n < 2:
        raise MatrixError("lukasiewicz family requires n >= 2")
    if n > MAX_VALUES:
        raise MatrixError(f"lukasiewicz family requires n <= {MAX_VALUES}")
    return _build(
        f"L{n}",
        _evenly_spaced(n),
        [Fraction(1)],
        lambda x: 1 - x,
        lambda x, y: min(Fraction(1), 1 - x + y),
    )


def goedel(n: int) -> Matrix:
    """The n-valued Goedel matrix: evenly spaced values in [0, 1], D = {1}."""
    if n < 2:
        raise MatrixError("goedel family requires n >= 2")
    if n > MAX_VALUES:
        raise MatrixError(f"goedel family requires n <= {MAX_VALUES}")
    return _build(
        f"G{n}",
        _evenly_spaced(n),
        [Fraction(1)],
        lambda x: Fraction(1) if x == 0 else Fraction(0),
        lambda x, y: Fraction(1) if x <= y else y,
    )


def _kleene3() -> Matrix:
    return _build(
        "K3",
        _evenly_spaced(3),
        [Fraction(1)],
        lambda x: 1 - x,
        lambda x, y: max(1 - x, y),
    )


def builtin(name: str) -> Matrix:
    """One of the built-in matrices: l3, g3, k3 or cl2."""
    key = name.lower()
    if key == "l3":
        return lukasiewicz(3)
    if key == "g3":
        return goedel(3)
    if key == "k3":
        return _kleene3()
    if key == "cl2":
        m = lukasiewicz(2)
        return Matrix("CL2", m.values, m.designated, m.neg, m.or_, m.and_, m.imp)
    raise MatrixError(f"unknown built-in matrix: {name!r}")


def has_star_property(m: Matrix) -> bool:
    """True iff negation maps every designated value outside the designated set."""
    return all(m.neg[x] not in m.designated for x in m.designated)


_DOCUMENT_KEYS = {"name", "values", "designated", "neg", "or", "and", "imp"}


def load_matrix(document: str | Mapping) -> Matrix:
    """Load and validate a matrix from a JSON document (text or mapping)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested deeper than the stack
            raise MatrixError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise MatrixError("matrix document must be a JSON object")
    keys = set(document)
    if keys - _DOCUMENT_KEYS:
        raise MatrixError(f"unknown keys: {sorted(keys - _DOCUMENT_KEYS)}")
    if _DOCUMENT_KEYS - keys:
        raise MatrixError(f"missing keys: {sorted(_DOCUMENT_KEYS - keys)}")
    name = document["name"]
    if not isinstance(name, str) or not name:
        raise MatrixError("name must be a nonempty string")
    raw_values = document["values"]
    if not isinstance(raw_values, list) or not raw_values:
        raise MatrixError("values must be a nonempty list")
    values = tuple(sorted(parse_value(tok) for tok in raw_values))
    if len(set(values)) != len(values):
        raise MatrixError("values must be distinct")
    raw_designated = document["designated"]
    if not isinstance(raw_designated, list) or not raw_designated:
        raise MatrixError("designated must be a nonempty list")
    designated = frozenset(parse_value(tok) for tok in raw_designated)
    if not designated < set(values):
        raise MatrixError("designated must be proper")

    def _out(token: object, label: str) -> Value:
        value = parse_value(token)  # type: ignore[arg-type]
        if value not in values:
            raise MatrixError(f"table not closed: {label} outputs {token!r}")
        return value

    neg_doc = document["neg"]
    if not isinstance(neg_doc, Mapping):
        raise MatrixError("neg must be an object")
    expected_neg_keys = {format_value(x) for x in values}
    if set(neg_doc) != expected_neg_keys:
        missing = sorted(expected_neg_keys - set(neg_doc))
        if missing:
            raise MatrixError(f"table not total: missing neg({missing[0]!r})")
        raise MatrixError(f"unknown keys in neg: {sorted(set(neg_doc) - expected_neg_keys)}")
    neg = {parse_value(k): _out(v, "neg") for k, v in neg_doc.items()}

    tables = {}
    expected_pair_keys = {
        f"{format_value(x)}|{format_value(y)}" for x in values for y in values
    }
    for label in ("or", "and", "imp"):
        table_doc = document[label]
        if not isinstance(table_doc, Mapping):
            raise MatrixError(f"{label} must be an object")
        if set(table_doc) != expected_pair_keys:
            missing = sorted(expected_pair_keys - set(table_doc))
            if missing:
                raise MatrixError(f"table not total: missing {label}({missing[0]!r})")
            raise MatrixError(
                f"unknown keys in {label}: {sorted(set(table_doc) - expected_pair_keys)}"
            )
        table = {}
        for key, out in table_doc.items():
            x_tok, y_tok = key.split("|", 1)
            table[(parse_value(x_tok), parse_value(y_tok))] = _out(out, label)
        tables[label] = table

    return Matrix(name, values, designated, neg, tables["or"], tables["and"], tables["imp"])


def load_matrix_file(path: str | Path) -> Matrix:
    """Load and validate the matrix in a JSON file; OSError if it cannot be read."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixError(f"not UTF-8 text: {exc}") from exc
    return load_matrix(text)


def matrix_to_document(m: Matrix) -> dict:
    """The JSON-serializable document for `m` (inverse of `load_matrix`)."""
    return {
        "name": m.name,
        "values": [format_value(v) for v in m.values],
        "designated": [format_value(v) for v in sorted(m.designated)],
        "neg": {format_value(x): format_value(v) for x, v in sorted(m.neg.items())},
        "or": _table_doc(m.or_),
        "and": _table_doc(m.and_),
        "imp": _table_doc(m.imp),
    }


def _table_doc(table: dict[tuple[Value, Value], Value]) -> dict[str, str]:
    return {
        f"{format_value(x)}|{format_value(y)}": format_value(v)
        for (x, y), v in sorted(table.items())
    }


def load_shipped(name: str) -> Matrix:
    """Load one of the matrix files shipped with the package."""
    key = name.lower()
    if key not in BUILTIN_NAMES:
        raise MatrixError(f"no shipped matrix file for {name!r}")
    text = (resources.files("paramat") / "matrices" / f"{key}.matrix").read_text()
    return load_matrix(text)
