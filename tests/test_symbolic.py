"""Word indexing, word matrices, and cylinder-function tables."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kusuoka.exactnum import Radical
from kusuoka.gasket import generate_system
from kusuoka.linalg import frobenius_sq
from kusuoka.matsys import sg_system
from kusuoka.measure import kusuoka_measure
from kusuoka.procspace import extend, identity_process
from kusuoka.symbolic import (
    BudgetError,
    CylinderFunction,
    all_words,
    concat,
    cylinder_from_json,
    cylinder_from_values,
    cylinder_to_json,
    enumerate_words,
    format_word,
    index_word,
    indicator,
    parse_word,
    word_index,
    word_matrix,
)

words3 = st.lists(st.integers(min_value=0, max_value=2), max_size=5).map(tuple)


@given(words3, words3)
def test_word_matrix_antihomomorphism(u, v):
    sys_ = sg_system()
    lhs = word_matrix(sys_, concat(u, v))
    rhs = word_matrix(sys_, v) @ word_matrix(sys_, u)
    assert frobenius_sq(lhs - rhs).is_zero()


@given(words3)
def test_index_roundtrip(w):
    i = word_index(w, 3)
    assert index_word(i, len(w), 3) == w


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=2, max_value=4))
def test_index_roundtrip_from_int(i, n):
    k = 4
    if i >= n**k:
        return
    w = index_word(i, k, n)
    assert word_index(w, n) == i


def test_word_order_is_lexicographic():
    ws = list(all_words(3, 2))
    assert ws[0] == (0, 0)
    assert ws[1] == (0, 1)
    assert ws[3] == (1, 0)
    assert ws == sorted(ws)
    assert [word_index(w, 3) for w in ws] == list(range(9))


def test_empty_word():
    sys_ = sg_system()
    m = word_matrix(sys_, ())
    assert m[0, 0] == Radical(1)
    assert m[0, 1].is_zero()
    assert word_index((), 3) == 0
    assert index_word(0, 0, 3) == ()


def test_word_matrices_level_matches_pointwise():
    sys_ = sg_system()
    mats = kusuoka_measure(sys_).level_matrices(2)
    assert len(mats) == 9
    for i, m in enumerate(mats):
        w = index_word(i, 2, 3)
        assert frobenius_sq(m - word_matrix(sys_, w)).is_zero()


@pytest.mark.parametrize("system,k_max", [(sg_system(), 3), (generate_system(3), 2)])
def test_word_tables_agree(system, k_max):
    m = kusuoka_measure(system)
    for k in range(k_max + 1):
        tables = (m.level_matrices(k), extend(identity_process(system), k).values)
        assert all(len(t) == system.n_symbols**k for t in tables)
        for a, b in zip(*tables):
            assert (a == b).all()


def test_negative_word_length_rejected():
    with pytest.raises(ValueError):
        kusuoka_measure(sg_system()).level_matrices(-1)


def test_enumerate_words_budget():
    sys_ = sg_system()
    with pytest.raises(BudgetError):
        list(enumerate_words(sys_, 5, budget=100))
    assert len(list(enumerate_words(sys_, 3, budget=27))) == 27


def test_word_matrices_budget():
    sys_ = sg_system()
    with pytest.raises(BudgetError):
        kusuoka_measure(sys_).level_matrices(4, budget=80)


def test_format_parse_roundtrip():
    alphabet = ("0", "1", "2")
    assert format_word((0, 2, 1), alphabet) == "021"
    assert parse_word("021", alphabet) == (0, 2, 1)
    assert parse_word("", alphabet) == ()
    long_names = ("aa", "bb")
    assert format_word((1, 0), long_names) == "bb.aa"
    assert parse_word("bb.aa", long_names) == (1, 0)


def test_parse_word_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        parse_word("03", ("0", "1", "2"))


def test_indicator_and_value():
    sys_ = sg_system()
    f = indicator(sys_, (0, 1))
    assert f.depth == 2
    assert f.value((0, 1)) == Radical(1)
    assert f.value((1, 0)).is_zero()
    with pytest.raises(ValueError):
        f.value((0,))


def test_refine_preserves_values():
    sys_ = sg_system()
    f = cylinder_from_values(sys_, 1, [Fraction(1), Fraction(2), Fraction(3)])
    g = f.refine(3)
    assert g.depth == 3
    assert g.value((0, 2, 1)) == Radical(1)
    assert g.value((2, 0, 0)) == Radical(3)
    with pytest.raises(ValueError):
        g.refine(2)


def test_cylinder_arithmetic():
    sys_ = sg_system()
    f = indicator(sys_, (0,))
    g = indicator(sys_, (1,))
    h = f + g * Fraction(2)
    assert h.value((1,)) == Radical(2)
    assert (f - f).value((0,)).is_zero()
    with pytest.raises(ValueError):
        f + indicator(sys_, (0, 0))


def test_cylinder_wrong_length_rejected():
    with pytest.raises(ValueError):
        CylinderFunction(2, 3, np.zeros(8), "float")


def test_cylinder_json_roundtrip_exact():
    sys_ = sg_system()
    f = cylinder_from_values(sys_, 2, [Fraction(i, 7) for i in range(9)])
    data = cylinder_to_json(f, sys_.alphabet)
    assert data["depth"] == 2
    assert data["values"]["01"] == "1/7"
    back = cylinder_from_json(data, sys_)
    assert all((back.values[i] - f.values[i]).is_zero() for i in range(9))


def test_cylinder_json_malformed():
    sys_ = sg_system()
    with pytest.raises(ValueError):
        cylinder_from_json({"values": {}}, sys_)
