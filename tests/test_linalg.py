"""Exact matrix kernels: characteristic polynomials, solves, factorizations."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kusuoka import linalg, multiquad
from kusuoka.exactnum import Radical
from kusuoka.linalg import (
    _split_spectrum,
    EXACT,
    FIELDS,
    FLOAT,
    as_matrix,
    certified_spectral_radius,
    char_poly,
    cholesky_exact,
    exact_eigenvalues_symmetric,
    frobenius_sq,
    identity,
    rational_roots,
    to_float_matrix,
)
from kusuoka.multiquad import nullspace, solve
from conftest import laplace_det, laplace_minors
from test_gasket import _spy_radical_arithmetic


def _exact(rows):
    return as_matrix([[Fraction(x) for x in row] for row in rows], EXACT)


def poly_eval(coeffs, x: Radical) -> Radical:
    """The polynomial with coefficients [c_0, ..., c_n] at x, by Horner's rule: the reference for roots."""
    acc = Radical(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


_entries = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _square(draw, max_n=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return _exact(draw(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)))


_SURDS = (Radical(1), Radical.root(2), Radical.root(3), Radical.root(6))
_sparse = st.one_of(st.just(Fraction(0)), _entries)


@st.composite
def _surd(draw):
    """An element of Q(sqrt 2, sqrt 3) with small rational coordinates, often rational or zero."""
    return sum((c * r for c, r in zip(draw(st.lists(_sparse, min_size=4, max_size=4)), _SURDS) if c), Radical(0))


@st.composite
def _surd_system(draw, max_n=4):
    """(m, b): m n x n over Q(sqrt 2, sqrt 3), b n x r, r = 1..3.

    Some draws zero m's leading entry, so the elimination needs a row
    exchange, and some make a column other than the last a combination of
    the columns before it, so a free column comes before a pivot column.
    """
    shape = draw(st.sampled_from(("any", "zero pivot", "free column")))
    n = draw(st.integers(min_value=1 if shape == "any" else 2, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=3))
    m = np.array([[draw(_surd()) for _ in range(n)] for _ in range(n)], dtype=object)
    b = np.array([[draw(_surd()) for _ in range(r)] for _ in range(n)], dtype=object)
    if shape == "zero pivot":
        m[0, 0] = Radical(0)
    elif shape == "free column":
        f = draw(st.integers(min_value=0, max_value=n - 2))
        m[:, f] = sum((draw(_surd()) * m[:, j] for j in range(f)), np.full(n, Radical(0), dtype=object))
    return m, b


def _rank(m) -> int:
    """The order of the largest minor of m that the cofactor reference finds nonzero."""
    rows, cols = m.shape
    for k in range(min(rows, cols), 0, -1):
        if any(not laplace_det(m[np.ix_(i, j)]).is_zero()
               for i in combinations(range(rows), k) for j in combinations(range(cols), k)):
            return k
    return 0


@settings(max_examples=60, deadline=None)
@given(_surd_system())
def test_elimination_views_agree(system):
    """Solve, null space and determinant of one packed elimination, against the cofactor reference.

    m x = b exactly where m is invertible; otherwise the solve raises and
    the null space has d - rank vectors, one per free column (a column that
    does not raise the rank of the columns before it), each with m v = 0,
    that free coordinate 1 and the other free coordinates 0.
    """
    m, b = system
    n = len(m)
    det = laplace_det(m)
    assert multiquad.minor_signs([m])[1].tolist() == [det.sign()]
    null = nullspace(m)
    if det.is_zero():
        ranks = [_rank(m[:, :j]) for j in range(n + 1)]
        free = [j for j in range(n) if ranks[j + 1] == ranks[j]]
        assert len(null) == len(free) == n - ranks[n] > 0
        for f, v in zip(free, null):
            assert all(x.is_zero() for x in m @ v)
            assert [v[j] for j in free] == [Radical(int(j == f)) for j in free]
        with pytest.raises(ValueError):
            solve(m, b)
    else:
        assert null == []
        assert all(e.is_zero() for e in (m @ solve(m, b) - b).ravel())


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


def _radical_char_poly(m):
    """Faddeev-LeVerrier on Radical entries, the route char_poly took before it packed."""
    n = m.shape[0]
    coeffs, a = [Radical(0)] * n + [Radical(1)], m.copy()
    for k in range(1, n + 1):
        coeffs[n - k] = -np.trace(a) / k
        if k < n:
            a = m @ (a + coeffs[n - k] * identity(n, EXACT))
    return coeffs


def test_char_poly_matches_the_radical_recurrence_and_takes_no_radical_arithmetic(monkeypatch):
    """Coefficients identical to the Radical recurrence on seeded matrices over Q, Q(sqrt 2) and Q(sqrt 2, sqrt 3); 0 x 0 through 5 x 5."""
    rng = np.random.default_rng(20)
    roots = [Radical.root(2), Radical.root(3)]
    cases = []
    for t in range(30):
        n = t % 6
        m = np.zeros((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                m[i, j] = Radical(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))))
                for r in roots[: t % 3]:
                    m[i, j] = m[i, j] + int(rng.integers(-2, 3)) * r
        cases.append((m, _radical_char_poly(m)))
    calls = _spy_radical_arithmetic(monkeypatch)
    for m, want in cases:
        assert char_poly(m) == want
    assert calls == []


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


def test_split_leaves_a_quadratic_it_cannot_factor():
    # eigenvalues 1 and +-sqrt(n), n a product of three primes past the
    # trial-division limit: the quadratic stays unsplit, nothing is certified
    n = 10000019 * 10000079 * 10000103
    m = _exact([[1, 0, 0], [0, 0, n], [0, 1, 0]])
    assert _split_spectrum(m) == ([Radical(1)], [], [-n, 0, 1])
    assert certified_spectral_radius(m)[1] is None
    assert exact_eigenvalues_symmetric(m) is None
    assert FIELDS[EXACT].sqrt(Radical(n)) is None


def test_certified_radius_irrational():
    m = _exact([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2)
    val, exact = certified_spectral_radius(m)
    assert exact == Radical.root(2)


@pytest.mark.parametrize("entry", [Radical(Fraction(92979, 327611)), Radical.root(15) / 15 + 2 * Radical.root(30) / 15])
def test_one_by_one_part_takes_no_root_search(monkeypatch, entry):
    """A 1x1 matrix is its own eigenvalue: no characteristic polynomial and no rational root search."""

    def refuse(*args):
        raise AssertionError("root search on a 1x1 matrix")

    monkeypatch.setattr(linalg, "char_poly", refuse)
    monkeypatch.setattr(linalg, "rational_roots", refuse)
    m = as_matrix([[entry]], EXACT)
    assert _split_spectrum(m) == ([entry], [], [])
    assert certified_spectral_radius(m) == (float(entry), entry)
    assert exact_eigenvalues_symmetric(m) == [entry]


def test_exact_eigenvalues_symmetric():
    m = _exact([[2, 1], [1, 2]])
    eigs = exact_eigenvalues_symmetric(m)
    assert eigs is not None
    assert sorted(float(e) for e in eigs) == [1.0, 3.0]


def test_nullspace_exact():
    m = _exact([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    basis = nullspace(m)
    assert len(basis) == 1
    assert list(basis[0]) == [Radical(1), Radical(-2), Radical(1)]
    assert all(x.is_zero() for x in m @ basis[0])


def test_nullspace_trivial():
    assert nullspace(_exact([[1, 0], [0, 1]])) == []


def test_solve_exact_roundtrip():
    m = _exact([[3, 1], [1, 2]])
    b = as_matrix([[Fraction(1)], [Fraction(7, 3)]], EXACT)
    x = solve(m, b)
    residual = m @ x - b
    assert all(e.is_zero() for e in residual.ravel())


def test_solve_exact_singular_raises():
    m = _exact([[1, 2], [2, 4]])
    b = as_matrix([[Fraction(1)], [Fraction(0)]], EXACT)
    with pytest.raises(ValueError):
        solve(m, b)


def test_det_and_minors():
    """The cofactor reference, and the packed elimination on the same matrix."""
    m = _exact([[2, 1], [1, 2]])
    assert laplace_det(m) == Radical(3)
    assert laplace_minors(m) == [Radical(2), Radical(3)]
    assert laplace_det(_exact([[0, 1, 2], [0, 3, 4], [5, 6, 7]])) == Radical(-10)
    fld = multiquad.field_of(frozenset(), True)
    lead, det, _ = fld.eliminate(fld.pack_array(m[None])[0])
    assert lead.tolist() == [[[2], [3]]] and det.tolist() == [[3]]


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


def test_field_sqrt():
    assert FIELDS[EXACT].sqrt(Radical(Fraction(9, 4))) == Radical(Fraction(3, 2))
    assert FIELDS[EXACT].sqrt(Radical(2)) == Radical.root(2)
    assert FIELDS[EXACT].sqrt(Radical(1) + Radical.root(2)) is None
    assert FIELDS[FLOAT].sqrt(2.25) == 1.5


def _old_radius_2x2(m):
    """The 2x2 radius by the route taken before the closed form came first."""
    coeffs = char_poly(m)
    if not all(c.is_rational() for c in coeffs):
        tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        try:
            sq = (tr * tr - 4 * det).sqrt()
        except ValueError:
            return None
        return max(abs((tr + sq) / 2), abs((tr - sq) / 2))
    roots, rem = rational_roots([c.as_fraction() for c in coeffs])
    vals = [abs(Radical(r)) for r in roots]
    if len(rem) == 2:
        vals.append(abs(Radical(-rem[0] / rem[1])))
    elif len(rem) == 3:
        a, b, c = rem[2], rem[1], rem[0]
        disc = b * b - 4 * a * c
        if disc >= 0:
            sq = Radical.root(disc)
            vals += [abs((sq - b) / (2 * a)), abs((-sq - b) / (2 * a))]
        else:
            vals.append(Radical.root(Fraction(c, a)))
    return max(vals)


@st.composite
def _surd_2x2(draw):
    """S diag(l1, l2) S^-1 with l in Q(sqrt 3), S rational: splits in the field; or random surds."""
    def surd():
        return Radical(draw(_entries)) + Radical(draw(_entries)) * Radical.root(3)
    if draw(st.booleans()):
        return as_matrix([[surd(), surd()], [surd(), surd()]], EXACT)
    s = _exact(draw(st.lists(st.lists(_entries, min_size=2, max_size=2), min_size=2, max_size=2)))
    if laplace_det(s).is_zero():
        s = identity(2, EXACT)
    d = as_matrix([[surd(), 0], [0, surd()]], EXACT)
    return s @ d @ solve(s, identity(2, EXACT))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_square(max_n=2).filter(lambda m: m.shape[0] == 2), _surd_2x2()))
def test_split_2x2_closed_form(m):
    reals, moduli, rest = _split_spectrum(m)
    coeffs = char_poly(m)
    for x in reals:
        assert poly_eval(coeffs, x).is_zero()
    if reals:
        assert len(reals) == 2 and not moduli and not rest
        assert reals[0] + reals[1] == m[0, 0] + m[1, 1]
    old = _old_radius_2x2(m)
    value, exact = certified_spectral_radius(m)
    assert (exact is None) == (old is None)
    if old is not None:
        assert exact == old


def _float_search_roots(coeffs):
    """rational_roots before factors of degree 1 and 2 were solved exactly: np.roots and limit_denominator
    candidates on every factor, whatever its degree.  The reference the exact route must contain."""
    work = [Fraction(c) for c in coeffs]
    while len(work) > 1 and work[-1] == 0:
        work.pop()
    roots, progress = [], True
    while progress and len(work) > 1:
        progress = False
        lead = work[-1]
        monic = [c / lead for c in work]
        candidates = {Fraction(z.real).limit_denominator(cap) for z in np.roots([float(c) for c in reversed(monic)])
                      if abs(z.imag) <= 1e-7 for cap in (10**6, 10**9, 10**12, 10**15)}
        for cand in candidates:
            if poly_eval(monic, Radical(cand)).is_zero():
                roots.append(cand)
                work = [c * lead for c in linalg._poly_deflate(monic, cand)]
                progress = True
                break
    return roots, work


def _expand(roots, tail=(Fraction(1),)):
    """Coefficients [c_0, ..., c_n] of tail(t) * prod (t - r)."""
    coeffs = [Fraction(c) for c in tail]
    for r in roots:
        coeffs = [-r * coeffs[0]] + [coeffs[i - 1] - r * coeffs[i] for i in range(1, len(coeffs))] + [coeffs[-1]]
    return coeffs


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=40), max_size=4, unique=True),
       st.sampled_from([(1,), (-2, 0, 1), (1, 1, 1), (3, 0, -1), (-5, 3)]), st.integers(1, 5))
def test_rational_roots_finds_what_the_float_search_finds(roots, tail, lead):
    """Every rational root with multiplicity, exact on the factors of degree <= 2; a superset of the float search."""
    coeffs = [lead * c for c in _expand(roots, tail)]
    got, rem = rational_roots(coeffs)
    want = sorted(roots + ([Fraction(5, 3)] if tail == (-5, 3) else []))
    assert sorted(got) == want
    quadratic = len(tail) == 3  # t^2 - 2, t^2 + t + 1 and 3 - t^2 have no rational root
    assert rem == ([lead * c for c in tail] if quadratic else [lead * tail[-1]])
    old, _ = _float_search_roots(coeffs)
    assert all(got.count(r) >= old.count(r) for r in old)


def test_rational_roots_solves_low_degree_factors_exactly(monkeypatch):
    """Linear and quadratic factors take no np.roots, and roots past the float search's reach are found."""
    big = [Fraction(10**20 + 1, 10**20 + 3), Fraction(-(10**18) - 7, 10**19)]
    sg6_perron = _expand([Fraction(7025, 21559)], (-2, 0, 1))  # one rational root and a surd pair, as sg6's

    calls, real = [], np.roots
    monkeypatch.setattr(np, "roots", lambda p: calls.append(len(p) - 1) or real(p))
    assert rational_roots(_expand(big)) == (big, [1])
    assert rational_roots(_expand(big[:1] * 2)) == (big[:1] * 2, [1])  # a double root
    assert rational_roots([Fraction(-2), 0, 1]) == ([], [-2, 0, 1])
    assert rational_roots([3, 0]) == ([], [3])  # a constant after the zero leading coefficient goes
    assert calls == []
    assert rational_roots(sg6_perron) == ([Fraction(7025, 21559)], [-2, 0, 1])
    assert calls == [3]
    assert _float_search_roots(_expand(big))[0] != big


@pytest.mark.parametrize("n", range(2, 7))
def test_gasket_perron_search_runs_one_float_round(n, monkeypatch):
    """generate_system(n) certifies its Perron cubic with one np.roots round: the deflated quadratic is
    solved exactly."""
    from kusuoka.gasket import generate_system

    calls, real = [], np.roots
    monkeypatch.setattr(np, "roots", lambda p: calls.append(len(p) - 1) or real(p))
    generate_system(n)
    assert calls == [3]
