"""Matrix construction, validation, and file-format tests.

The three-valued truth tables are transcribed here independently of the
construction code and frozen; eval is checked against every cell.
"""

import json
from fractions import Fraction

import pytest

from paramat.matrix import (
    BUILTIN_NAMES,
    MAX_VALUES,
    Matrix,
    MatrixError,
    builtin,
    format_value,
    goedel,
    has_star_property,
    load_matrix,
    load_matrix_file,
    load_shipped,
    lukasiewicz,
    matrix_to_document,
    parse_value,
)

F0, FH, F1 = Fraction(0), Fraction(1, 2), Fraction(1)

# Frozen tables, rows by (x, y).  or/and are max/min in all three systems.
L3_NEG = {F1: F0, FH: FH, F0: F1}
L3_IMP = {
    (F1, F1): F1, (F1, FH): FH, (F1, F0): F0,
    (FH, F1): F1, (FH, FH): F1, (FH, F0): FH,
    (F0, F1): F1, (F0, FH): F1, (F0, F0): F1,
}
G3_NEG = {F1: F0, FH: F0, F0: F1}
G3_IMP = {
    (F1, F1): F1, (F1, FH): FH, (F1, F0): F0,
    (FH, F1): F1, (FH, FH): F1, (FH, F0): F0,
    (F0, F1): F1, (F0, FH): F1, (F0, F0): F1,
}
K3_NEG = {F1: F0, FH: FH, F0: F1}
K3_IMP = {
    (F1, F1): F1, (F1, FH): FH, (F1, F0): F0,
    (FH, F1): F1, (FH, FH): FH, (FH, F0): FH,
    (F0, F1): F1, (F0, FH): F1, (F0, F0): F1,
}
MAX_TABLE = {(x, y): max(x, y) for x in (F0, FH, F1) for y in (F0, FH, F1)}
MIN_TABLE = {(x, y): min(x, y) for x in (F0, FH, F1) for y in (F0, FH, F1)}

FROZEN = {
    "l3": (L3_NEG, L3_IMP),
    "g3": (G3_NEG, G3_IMP),
    "k3": (K3_NEG, K3_IMP),
}


class TestValues:
    def test_parse_value(self):
        assert parse_value("0") == F0
        assert parse_value("1/2") == FH
        assert parse_value("-1") == Fraction(-1)

    @pytest.mark.parametrize("token", ["2/4", "1.5", "", "one", "1/0", "01", "+1"])
    def test_parse_value_rejects(self, token):
        with pytest.raises(MatrixError):
            parse_value(token)

    def test_format_round_trip(self):
        for v in (F0, FH, F1, Fraction(2, 3)):
            assert parse_value(format_value(v)) == v


class TestBuiltinTables:
    @pytest.mark.parametrize("name", ["l3", "g3", "k3"])
    def test_frozen_tables(self, name):
        m = builtin(name)
        neg, imp = FROZEN[name]
        assert m.values == (F0, FH, F1)
        assert m.designated == frozenset([F1])
        assert m.neg == neg
        assert m.imp == imp
        assert m.or_ == MAX_TABLE
        assert m.and_ == MIN_TABLE

    def test_cl2(self):
        m = builtin("cl2")
        assert m.values == (F0, F1)
        assert m.designated == frozenset([F1])
        assert m.neg == {F0: F1, F1: F0}
        assert m.imp[(F1, F0)] == F0
        assert m.imp[(F0, F0)] == F1

    def test_unknown(self):
        with pytest.raises(MatrixError):
            builtin("nope")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_star_property(self, name):
        assert has_star_property(builtin(name))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_validate(self, name):
        builtin(name).validate()


class TestFamilies:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_members_valid(self, n):
        for m in (lukasiewicz(n), goedel(n)):
            m.validate()
            assert len(m.values) == n
            assert m.values[0] == F0 and m.values[-1] == F1
            assert has_star_property(m)

    def test_three_valued_members_match_builtins(self):
        assert lukasiewicz(3).same_tables(builtin("l3"))
        assert goedel(3).same_tables(builtin("g3"))

    def test_two_valued_members_are_classical(self):
        assert lukasiewicz(2).same_tables(builtin("cl2"))
        assert goedel(2).same_tables(builtin("cl2"))

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_degenerate_rejected(self, n):
        with pytest.raises(MatrixError):
            lukasiewicz(n)
        with pytest.raises(MatrixError):
            goedel(n)

    def test_value_cap(self):
        assert len(lukasiewicz(MAX_VALUES).values) == len(goedel(MAX_VALUES).values) == 64
        with pytest.raises(MatrixError):
            lukasiewicz(MAX_VALUES + 1)
        with pytest.raises(MatrixError):
            goedel(MAX_VALUES + 1)

    def test_too_many_values_rejected(self):
        values = tuple(Fraction(i, MAX_VALUES) for i in range(MAX_VALUES + 1))
        table = {(x, y): max(x, y) for x in values for y in values}
        neg = {x: 1 - x for x in values}
        with pytest.raises(MatrixError, match="at most 64 values"):
            Matrix("M65", values, frozenset([F1]), neg, table, table, table)


class TestDocuments:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_round_trip(self, name):
        m = builtin(name)
        again = load_matrix(matrix_to_document(m))
        assert again.same_tables(m)
        assert again.name == m.name

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_shipped_files_match_builtins(self, name):
        assert load_shipped(name).same_tables(builtin(name))

    def test_load_from_text(self):
        text = json.dumps(matrix_to_document(builtin("l3")))
        assert load_matrix(text).same_tables(builtin("l3"))

    def test_invalid_json(self):
        with pytest.raises(MatrixError, match="invalid JSON"):
            load_matrix("{not json")

    def test_unknown_key_rejected(self):
        doc = matrix_to_document(builtin("l3"))
        doc["extra"] = 1
        with pytest.raises(MatrixError, match="unknown keys"):
            load_matrix(doc)

    def test_missing_key_rejected(self):
        doc = matrix_to_document(builtin("l3"))
        del doc["imp"]
        with pytest.raises(MatrixError, match="missing keys"):
            load_matrix(doc)

    def test_partial_table_rejected(self):
        doc = matrix_to_document(builtin("l3"))
        del doc["imp"]["1|1"]
        with pytest.raises(MatrixError, match="table not total"):
            load_matrix(doc)

    def test_unclosed_table_rejected(self):
        doc = matrix_to_document(builtin("l3"))
        doc["imp"]["1|1"] = "2/3"
        with pytest.raises(MatrixError, match="not closed"):
            load_matrix(doc)

    def test_improper_designated_rejected(self):
        doc = matrix_to_document(builtin("l3"))
        doc["designated"] = ["0", "1/2", "1"]
        with pytest.raises(MatrixError, match="proper"):
            load_matrix(doc)

    def test_non_reduced_token_rejected(self):
        doc = matrix_to_document(builtin("l3"))
        doc["values"] = ["0", "2/4", "1"]
        with pytest.raises(MatrixError, match="not reduced"):
            load_matrix(doc)

    def test_load_matrix_file(self, tmp_path):
        path = tmp_path / "m.matrix"
        path.write_text(json.dumps(matrix_to_document(builtin("g3"))))
        assert load_matrix_file(path).same_tables(builtin("g3"))

    def test_load_shipped_unknown(self):
        with pytest.raises(MatrixError):
            load_shipped("zzz")
