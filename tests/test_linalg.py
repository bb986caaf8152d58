"""Exact matrix kernels: characteristic polynomials, solves, factorizations."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kusuoka.exactnum import Radical
from kusuoka.linalg import (
    EXACT,
    FIELDS,
    FLOAT,
    as_matrix,
    certified_spectral_radius,
    char_poly,
    cholesky_exact,
    det_exact,
    exact_eigenvalues_symmetric,
    frobenius_sq,
    identity,
    leading_minors,
    nullspace_exact,
    poly_eval,
    solve_exact,
    to_float_matrix,
)


def _exact(rows):
    return as_matrix([[Fraction(x) for x in row] for row in rows], EXACT)


_entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _square(draw, max_n=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return _exact(draw(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(_square(), st.lists(_entries, min_size=3, max_size=3))
def test_elimination_views_agree(m, rhs):
    n = m.shape[0]
    b = as_matrix([[x] for x in rhs[:n]], EXACT)
    singular = det_exact(m).is_zero()
    assert singular == (len(nullspace_exact(m)) > 0)
    if singular:
        with pytest.raises(ValueError):
            solve_exact(m, b)
    else:
        x = solve_exact(m, b)
        assert all(e.is_zero() for e in (m @ x - b).ravel())


@settings(max_examples=60, deadline=None)
@given(_square())
def test_splitter_views_agree(m):
    sym = m + m.T
    eigs = exact_eigenvalues_symmetric(sym)
    if eigs is None:
        return
    _, exact = certified_spectral_radius(sym)
    top = max(abs(e) for e in eigs)
    assert exact is not None and exact == top


def test_char_poly_matches_numpy():
    m = _exact([[2, 1, 0], [1, 3, -1], [0, -1, 1]])
    coeffs = char_poly(m)
    got = np.array([float(c) for c in coeffs])
    want = np.poly(to_float_matrix(m))[::-1]
    assert np.allclose(got, want, atol=1e-12)


def test_char_poly_annihilates_eigenvalue():
    m = _exact([[Fraction(4, 5), 0], [0, Fraction(3, 5)]])
    coeffs = char_poly(m)
    assert poly_eval(coeffs, Radical(Fraction(4, 5))).is_zero()
    assert poly_eval(coeffs, Radical(Fraction(3, 5))).is_zero()


def test_certified_radius_rational():
    m = _exact([[Fraction(4, 5), 1], [0, Fraction(1, 5)]])
    val, exact = certified_spectral_radius(m)
    assert exact == Fraction(4, 5)
    assert val == 0.8


def test_certified_radius_quadratic_factor():
    # eigenvalues 1 and -2 of [[0,2],[1,-1]]; radius 2 from the quadratic
    m = _exact([[0, 2], [1, -1]])
    val, exact = certified_spectral_radius(m)
    assert exact == Radical(2)
    assert val == 2.0


def test_certified_radius_irrational():
    m = _exact([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2)
    val, exact = certified_spectral_radius(m)
    assert exact == Radical.root(2)


def test_exact_eigenvalues_symmetric():
    m = _exact([[2, 1], [1, 2]])
    eigs = exact_eigenvalues_symmetric(m)
    assert eigs is not None
    assert sorted(float(e) for e in eigs) == [1.0, 3.0]


def test_nullspace_exact():
    m = _exact([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    basis = nullspace_exact(m)
    assert len(basis) == 1
    v = basis[0]
    residual = m @ v
    assert all(x.is_zero() for x in residual)


def test_nullspace_trivial():
    assert nullspace_exact(_exact([[1, 0], [0, 1]])) == []


def test_solve_exact_roundtrip():
    m = _exact([[3, 1], [1, 2]])
    b = as_matrix([[Fraction(1)], [Fraction(7, 3)]], EXACT)
    x = solve_exact(m, b)
    residual = m @ x - b
    assert all(e.is_zero() for e in residual.ravel())


def test_solve_exact_singular_raises():
    m = _exact([[1, 2], [2, 4]])
    b = as_matrix([[Fraction(1)], [Fraction(0)]], EXACT)
    with pytest.raises(ValueError):
        solve_exact(m, b)


def test_det_and_minors():
    m = _exact([[2, 1], [1, 2]])
    assert det_exact(m) == Radical(3)
    minors = leading_minors(m)
    assert [float(x) for x in minors] == [2.0, 3.0]


def test_cholesky_exact():
    m = _exact([[4, 2], [2, 10]])
    up = cholesky_exact(m)
    prod = up.T @ up
    assert all((prod[i, j] - m[i, j]).is_zero() for i in range(2) for j in range(2))
    assert up[1, 0].is_zero()


def test_cholesky_rejects_indefinite():
    with pytest.raises(ValueError):
        cholesky_exact(_exact([[1, 2], [2, 1]]))


def test_frobenius_sq_backends():
    me = _exact([[1, 2], [3, 4]])
    assert frobenius_sq(me) == Radical(30)
    mf = as_matrix([[1.0, 2.0], [3.0, 4.0]], FLOAT)
    assert frobenius_sq(mf) == pytest.approx(30.0)


def test_identity_backends():
    ie = identity(3, EXACT)
    assert ie.dtype == object
    assert ie[0, 0] == Radical(1)
    iff = identity(3, FLOAT)
    assert iff.dtype == np.float64


# -- the scalar field of each backend ----------------------------------------

_JSON_SAMPLES = {
    EXACT: [Radical(0), Radical(Fraction(-7, 3)), Radical.root(2),
            Radical(Fraction(1, 2)) - Radical.root(Fraction(5, 3))],
    FLOAT: [0.0, -2.5, 0.1, 1 / 3, 2.0**0.5, 1e-300, -7e22],
}


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_field_json_roundtrip(backend):
    field = FIELDS[backend]
    for x in _JSON_SAMPLES[backend]:
        back = field.from_json(field.to_json(x))
        assert back == x and type(back) is type(x)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("bad", [None, [1], {"a": 1}, "1/", "sqrt(2"])
def test_field_from_json_rejects(backend, bad):
    with pytest.raises(ValueError):
        FIELDS[backend].from_json(bad)


def test_field_from_json_reads_decimals_as_written():
    assert FIELDS[EXACT].from_json(0.1) == Radical(Fraction(1, 10))
    assert FIELDS[EXACT].from_json(3) == Radical(3)
    assert FIELDS[EXACT].from_json("1/2*sqrt(3)") == Radical.root(Fraction(3, 4))
    assert FIELDS[FLOAT].from_json(0.1) == 0.1
    assert FIELDS[FLOAT].from_json("1/4") == 0.25


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_field_array_shapes(backend):
    field = FIELDS[backend]
    assert field.array([1, 2, 3]).shape == (3,)
    m = field.array([[1, 2], [3, 4]])
    assert m.shape == (2, 2) and m.dtype == field.dtype
    assert all(isinstance(x, type(field.one)) for x in m.flat)
    for ragged in ([[1, 2], [3]], [[1, [2]], [3, 4]], [[[1]]]):
        with pytest.raises(ValueError):
            field.array(ragged)
    assert np.array_equal(field.identity(2), field.array([[1, 0], [0, 1]]))
    assert np.array_equal(field.zeros((2, 3)), field.array([[0, 0, 0], [0, 0, 0]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.data())
def test_field_arrays_agree_across_backends(rows, cols, data):
    entries = data.draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows))
    exact, flt = FIELDS[EXACT].array(entries), FIELDS[FLOAT].array(entries)
    assert np.array_equal(to_float_matrix(exact), flt)
    assert flt.dtype == np.float64


@settings(max_examples=60, deadline=None)
@given(_square(), _entries.filter(lambda c: c != 0))
def test_field_div_matches_true_division(m, c):
    ce = Radical(c)
    assert np.array_equal(FIELDS[EXACT].div(m, ce), m / ce)
    assert FIELDS[EXACT].div(ce * ce, ce) == ce
    mf, cf = to_float_matrix(m), float(c)
    got, want = FIELDS[FLOAT].div(mf, cf), mf / cf
    assert got.tobytes() == want.tobytes()


def test_field_sqrt():
    assert FIELDS[EXACT].sqrt(Radical(Fraction(9, 4))) == Radical(Fraction(3, 2))
    assert FIELDS[EXACT].sqrt(Radical(2)) == Radical.root(2)
    assert FIELDS[EXACT].sqrt(Radical(1) + Radical.root(2)) is None
    assert FIELDS[FLOAT].sqrt(2.25) == 1.5
