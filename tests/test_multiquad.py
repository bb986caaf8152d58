"""The multiquadratic field: products over the support, stacked inverses, fraction-free elimination and solves."""

from fractions import Fraction

import numpy as np
import pytest

from kusuoka import gasket, multiquad
from kusuoka.exactnum import Radical
from kusuoka.linalg import EXACT, as_matrix
from conftest import laplace_det, laplace_minors

# sqrt(p/129) = sqrt(129 p)/129 for ten primes p: the field of the 10-symbol Bernoulli maps, t = 10, m = 1 024
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _counting_products(monkeypatch):
    """Count the coordinate pairs every field product forms."""
    pairs = []
    products = multiquad.Multiquad._products

    def counted(self, out, term, *args):
        def each(i, j):
            pairs.append((i, j))
            if len(pairs) > 64:
                raise AssertionError("a product of one-coordinate stacks formed more than 64 coordinate pairs")
            return term(i, j)
        return products(self, out, each, *args)

    monkeypatch.setattr(multiquad.Multiquad, "_products", counted)
    return pairs


def test_products_of_one_coordinate_stacks_touch_one_pair(monkeypatch):
    """In the t = 10 field a product of two one-coordinate stacks forms one coordinate pair, and equals Radical."""
    fld = multiquad.Multiquad({129 * p for p in _PRIMES}, True)
    assert fld.m == 1 << 10
    roots = [Radical.root(Fraction(p, 129)) for p in _PRIMES]
    x = np.array([[roots[0] * roots[3], 3 * roots[0] * roots[3]]], dtype=object)
    y = np.array([[roots[3] * roots[9], -2 * roots[3] * roots[9]]], dtype=object)
    (xn, xd), (yn, yd) = fld.pack_array(x), fld.pack_array(y)
    pairs = _counting_products(monkeypatch)
    got = fld.unpack_array(fld.mul(xn, yn), xd * yd)
    assert len(pairs) == 1
    assert (got == x * y).all()
    assert got[0, 1] == Radical(Fraction(-6 * 7, 129 ** 2)) * Radical.root(58)


def test_support_is_every_coordinate_nonzero_somewhere():
    num = np.zeros((3, 2, 2, 8), dtype=object)
    num[1, 0, 1, 5] = 7
    num[2, 1, 1, 2] = -1
    assert multiquad._support(num) == [2, 5]
    assert multiquad._support(np.zeros((0, 4), dtype=object)) == []
    assert multiquad._support(np.ones((2, 1))) == [0]


def _field_and_values():
    """Q(sqrt 2, sqrt 3) and a stack of its elements, some rational."""
    r2, r3 = Radical.root(2), Radical.root(3)
    vals = [r2 + r3, 1 - r2 * r3, Radical(Fraction(5, 3)), 2 * r3 - Fraction(1, 2), r2 - r3 + r2 * r3]
    return multiquad.Multiquad({2, 3}, True), vals


def _unpack_reference(fld, num, den):
    """Rows (N, m) as scalars the dict way: a Fraction per nonzero coordinate, sorted by Radical.from_terms."""
    return [Radical.from_terms({fld.radicand[b]: Fraction(fld.scale[b] * x, den) for b, x in enumerate(row) if x})
            for row in np.asarray(num).tolist()]


@pytest.mark.parametrize("radicands", [frozenset(), frozenset({2}), frozenset({2, 3}), frozenset({6, 10})],
                         ids=["m1", "m2", "m4", "m4-scaled"])
def test_unpack_equals_the_dict_route(radicands):
    """Unpacked rows equal the dict-and-sort route's, term for term and in hash, with zero rows, signs and den > 1."""
    fld = multiquad.field_of(radicands, True)
    assert fld.m == 1 << len(radicands)
    if radicands == {6, 10}:
        assert fld.scale == [1, 1, 1, 2]
    rng = np.random.default_rng(fld.m + len(fld.gens))
    for den in (1, 2, 35, 360):
        num = np.array(rng.integers(-40, 41, (60, fld.m)).tolist(), dtype=object)
        num[::7] = 0  # zero rows
        num[1::5, 0] = 0  # rows with no rational part
        num[2] = [10**30 + 7, -(10**25)] * (fld.m // 2) if fld.m > 1 else [-(10**30)]
        got, want = fld.unpack(num, den), _unpack_reference(fld, num, den)
        assert [x.terms() for x in got] == [x.terms() for x in want]
        assert [hash(x) for x in got] == [hash(x) for x in want]
        assert got == want and all(x.is_zero() for x in got[::7])
        assert all(type(c) is Fraction for x in got for _, c in x.terms())


def test_stacked_inverse_is_the_reciprocal():
    fld, vals = _field_and_values()
    num, den = fld.pack_array(np.array(vals, dtype=object))
    inv, norm = fld._inverse(num)
    assert inv.shape == num.shape and norm.shape == (len(vals),)
    for v, c, nrm in zip(vals, fld.unpack(inv, 1), norm):
        assert c * den / nrm == Radical(1) / v
    # one element gives a scalar norm; a rational one is its own norm over the unit
    inv, norm = fld._inverse(num[2])
    assert list(inv) == [1, 0, 0, 0] and norm == num[2, 0]


def test_divide_takes_every_quotient_over_one_denominator():
    fld, vals = _field_and_values()
    x = fld.pack_array(np.array(vals, dtype=object))
    y = fld.pack_array(np.array(vals[1:] + vals[:1], dtype=object))
    assert fld.unpack(*fld.divide(x, y)) == [a / b for a, b in zip(vals, vals[1:] + vals[:1])]
    flt = multiquad.field_of(frozenset(), False)
    num, den = flt.divide((np.array([[1.0], [3.0]]), 1), (np.array([[4.0], [-2.0]]), 1))
    assert num.tolist() == [[0.25], [-1.5]] and den == 1


def test_quotient_floats_round_the_exact_quotient():
    fld, vals = _field_and_values()
    x = fld.pack_array(np.array(vals, dtype=object))
    y = fld.pack_array(np.array([vals[0]], dtype=object))
    got = fld.quotient_floats(x[0], x[1], y[0][0], y[1])
    assert got == pytest.approx([float(v / vals[0]) for v in vals], rel=1e-15)


def _random_matrix(rng, d, singular):
    roots = [Radical(1), Radical.root(2), Radical.root(3), Radical.root(6)]
    a = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            coeffs = rng.integers(-2, 3, 4) * (rng.random(4) < 0.5)
            a[i, j] = sum((int(c) * r for c, r in zip(coeffs, roots)), Radical(0))
    if singular and d > 1:
        a[-1] = Radical.root(2) * a[0] + a[d // 2] if d > 2 else Radical.root(3) * a[0]
    return a


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_elimination_equals_the_radical_reference(d):
    """Leading minors up to the first that vanishes, and every determinant, as cofactor expansion finds them."""
    rng = np.random.default_rng(d)
    mats = [_random_matrix(rng, d, singular=k % 3 == 0) for k in range(24)]
    fld = multiquad.field_of(frozenset({2, 3}), True)
    num, den = fld.pack_array(np.array(mats))
    lead, det, _ = fld.eliminate(num)
    for a, minors, dt in zip(mats, lead, det):
        assert fld.unpack([dt], 1)[0] / Fraction(den) ** d == laplace_det(a)
        for k, (got, want) in enumerate(zip(fld.unpack(minors, 1), laplace_minors(a))):
            assert got / Fraction(den) ** (k + 1) == want
            if want.is_zero():
                assert not minors[k + 1:].any()
                break
    _, det_signs = multiquad.minor_signs(mats)
    assert det_signs.tolist() == [laplace_det(a).sign() for a in mats]


def test_elimination_exchanges_rows_where_a_pivot_vanishes():
    """[[0, 1], [1, 1]] has leading minors 0 and -1: the exchange keeps its determinant and drops the second minor."""
    a = as_matrix([[0, 1], [1, 1]], EXACT)
    b = as_matrix([[0, 1, 2], [0, 3, 4], [5, 6, 7]], EXACT)
    lead, det = multiquad.minor_signs([a])
    assert lead.tolist() == [[0, 0]] and det.tolist() == [-1]
    lead, det = multiquad.minor_signs([b])
    assert lead.tolist() == [[0, 0, 0]] and det.tolist() == [laplace_det(b).sign()] == [-1]


def test_packed_solves_take_no_radical_arithmetic(monkeypatch):
    """The gasket Dirichlet solve and a packed solve over Q(sqrt 2, sqrt 3) form no Radical product or quotient."""
    fld, vals = _field_and_values()
    m = np.array([[vals[1], vals[0], vals[2]], [vals[3], vals[4], vals[0]], [vals[2], vals[1], vals[3]]], dtype=object)
    b = np.array([[vals[0], vals[4]], [vals[2], vals[1]], [vals[3], vals[3]]], dtype=object)

    def refuse(*_):
        raise AssertionError("Radical arithmetic in a packed solve")

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Radical, name, refuse)
    ext = gasket.harmonic_extension(gasket.build_graph(6))
    x, den = fld.solve(fld.pack_array(m[None]), fld.pack_array(b[None]))
    monkeypatch.undo()
    assert all(sum(row, Radical(0)) == 1 for row in ext)
    assert (m @ fld.unpack_array(x[0], den) == b).all()
