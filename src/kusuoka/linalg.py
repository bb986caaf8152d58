"""Small dense linear algebra over both numeric backends.

Float matrices are plain ``float64`` numpy arrays.  Exact matrices are
``object`` numpy arrays whose entries are :class:`~kusuoka.exactnum.Radical`;
the usual ``@``, ``+``, ``.T`` and ``np.trace`` then dispatch through the
scalar operators, so most callers never branch on the backend.  The rest
(zero and one, lifting, square roots, division, JSON scalars) is asked of
the backend's :class:`Field` in ``FIELDS``.

The exact eigen machinery splits a quadratic by one packed closed form
(:func:`_quadratic_spectra`): the pencil det(G - tH) of two 2x2 matrices
(:func:`pencil_spectra`), a 2x2 matrix, and the quadratic factor a larger
characteristic polynomial leaves.  Larger matrices go through their
characteristic polynomials: Faddeev-LeVerrier for the coefficients,
rational root reconstruction (float approximation, continued-fraction
rounding, exact verification, exact deflation) for factors of degree 3 or
more, and exact solution of what deflation leaves at degree 1 or 2.  This
is enough to certify spectral radii of the small operator representations
this package produces.

Exact determinants, solves and null spaces are one packed fraction-free
elimination, :meth:`kusuoka.multiquad.Multiquad.eliminate`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import multiquad
from .exactnum import Radical, _rational_sqrt, format_exact, parse_exact

EXACT = "exact"
FLOAT = "float"

__all__ = [
    "EXACT",
    "FLOAT",
    "FIELDS",
    "array_field",
    "as_matrix",
    "identity",
    "to_float_matrix",
    "frobenius_sq",
    "char_poly",
    "rational_roots",
    "certified_spectral_radius",
    "exact_eigenvalues_symmetric",
    "cholesky_exact",
]


class Field:
    """The scalars of one backend and the arrays built from them.

    ``FIELDS[EXACT]`` holds :class:`~kusuoka.exactnum.Radical` entries in
    object arrays, ``FIELDS[FLOAT]`` float64.  Arithmetic needs no field:
    ``Radical`` overloads the operators.  What does differ between the two
    backends (lifting a number, square roots, JSON) lives here,
    and ``exact`` is the one answer to "exact or float".
    """

    __slots__ = ()

    def array(self, rows) -> np.ndarray:
        """A vector or matrix of lifted entries; ``ValueError`` on ragged rows."""
        src = np.asarray(rows, dtype=object)
        if src.ndim not in (1, 2) or any(isinstance(x, (list, tuple, np.ndarray)) for x in src.flat):
            raise ValueError("expected a vector or a matrix with rows of equal length")
        return np.asarray(np.frompyfunc(self.lift, 1, 1)(src), dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        out = np.empty(shape, dtype=self.dtype)
        out[...] = self.zero
        return out

    def identity(self, d: int) -> np.ndarray:
        out = self.zeros((d, d))
        out.flat[:: d + 1] = self.one
        return out

    def from_json(self, x):
        """Read one JSON scalar.

        A string goes through :func:`parse_exact`, an int is lifted, and a
        number with a fractional part is read as the decimal written
        (``Fraction(str(x))``); anything else raises ``ValueError``.
        """
        if isinstance(x, str):
            return self.lift(parse_exact(x))
        if isinstance(x, int):
            return self.lift(x)
        if isinstance(x, float):
            return self.lift(Fraction(str(x)))
        raise ValueError(f"expected a number or an exact scalar string, got {x!r}")


class _ExactField(Field):
    __slots__ = ()
    dtype, zero, one, exact = object, Radical(0), Radical(1), True
    lift = staticmethod(Radical)
    to_json = staticmethod(format_exact)

    def sqrt(self, x):
        """The square root in the field, or None when it leaves the field."""
        try:
            return Radical(x).sqrt()
        except ValueError:
            return None


class _FloatField(Field):
    __slots__ = ()
    dtype, zero, one, exact = float, 0.0, 1.0, False
    lift = staticmethod(float)
    to_json = staticmethod(float)

    def sqrt(self, x):
        return math.sqrt(x)


FIELDS = {EXACT: _ExactField(), FLOAT: _FloatField()}


def array_field(a) -> Field:
    """The Field whose scalars the array (or sequence) ``a`` holds: object arrays are exact."""
    return FIELDS[EXACT if np.asarray(a).dtype == object else FLOAT]


def as_matrix(rows, backend: str) -> np.ndarray:
    """Build a matrix for the given backend, coercing entries."""
    return FIELDS[backend].array(rows)


def identity(d: int, backend: str) -> np.ndarray:
    return FIELDS[backend].identity(d)


def to_float_matrix(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float)


def frobenius_sq(a: np.ndarray):
    """Sum of squared entries, a scalar of the array's field."""
    return array_field(a).lift((a * a).sum())


def char_poly(m: np.ndarray) -> list[Radical]:
    """Monic characteristic polynomial of an exact square matrix.

    Returns coefficients [c_0, ..., c_{n-1}, 1] with
    p(t) = t^n + c_{n-1} t^{n-1} + ... + c_0, via Faddeev-LeVerrier
    (exact: the only divisions are by integers), on integer coordinates in
    the smallest field holding m's entries; only the coefficients are unpacked.
    """
    n = m.shape[0]
    assert m.shape == (n, n) and m.dtype == object
    fld, (x,) = multiquad._smallest_field(m)
    a, coeffs = x, [(np.eye(1, fld.m, dtype=object), 1)]  # 1, c_(n-1), ..., c_0
    for k in range(1, n + 1):
        tr = np.trace(a[0])  # (field coordinates,) over a[1]
        coeffs.append((-tr[None], a[1] * k))
        if k < n:  # A + c I over the denominator k a[1]
            a = fld.matmul(x, (a[0] * k - np.eye(n, dtype=int)[..., None] * tr, a[1] * k))
    return fld.unpack(*fld.join(coeffs[::-1]))


def _poly_deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    # synthetic division, exact; assumes coeffs[-1] == 1 after scaling
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + carry * root
    assert carry == 0
    return out


def rational_roots(coeffs: list[Fraction]):
    """All rational roots (with multiplicity) of a rational polynomial.

    Returns (roots, remainder) where remainder is the deflated
    coefficient list containing no rational roots.  A factor of degree 3
    or more takes its candidates from float root finding plus
    continued-fraction reconstruction, and every accepted root is
    verified exactly, so the output is certified.  A factor of degree 1
    or 2, given or left by deflation, is solved exactly: the linear root,
    or the quadratic's roots when its discriminant is a rational square.
    """
    work = [Fraction(c) for c in coeffs]
    while len(work) > 1 and work[-1] == 0:
        work.pop()
    roots: list[Fraction] = []
    progress = True
    while progress and len(work) > 3:
        progress = False
        lead = work[-1]
        monic = [c / lead for c in work]
        approx = np.roots([float(c) for c in reversed(monic)])
        candidates: set[Fraction] = set()
        for z in approx:
            if abs(z.imag) > 1e-7:
                continue
            x = z.real
            for denom_cap in (10**6, 10**9, 10**12, 10**15):
                candidates.add(Fraction(x).limit_denominator(denom_cap))
        for cand in candidates:
            val = Fraction(0)
            for c in reversed(monic):
                val = val * cand + c
            if val == 0:
                roots.append(cand)
                work = [c * lead for c in _poly_deflate(monic, cand)]
                progress = True
                break
    if len(work) == 2:
        roots.append(-work[0] / work[1])
        work = work[1:]
    elif len(work) == 3:
        c, b, a = work
        disc = b * b - 4 * a * c
        sq = _rational_sqrt(disc) if disc >= 0 else None
        if sq is not None:
            roots += [(sq - b) / (2 * a), (-sq - b) / (2 * a)]
            work = work[2:]
    return roots, work


def _cauchy_bound(coeffs: list[Fraction]) -> float:
    lead = coeffs[-1]
    return 1.0 + max(abs(float(c / lead)) for c in coeffs[:-1])


# the products of det(G - tH) = a t^2 - b t + c over a pencil's entries h00 h01 h10 h11 g00 g01 g10 g11,
# and the signs that sum them to a, b and c
_PENCIL_LEFT, _PENCIL_RIGHT = [0, 1, 3, 0, 1, 2, 4, 5], [3, 2, 4, 7, 6, 5, 7, 6]
_PENCIL_SIGNS = np.array([[1, -1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, -1, -1, 0, 0], [0, 0, 0, 0, 0, 0, 1, -1]], dtype=object)


def pencil_spectra(fld, g, h) -> list:
    """The spectra of H^-1 G for stacked 2x2 pencils, as :func:`_split_spectrum` gives them.

    g and h are integer coordinates (N, 2, 2, m) in the field ``fld`` over
    one shared denominator, which cancels.  det(G - tH) = a t^2 - b t + c
    with a = det H, b = h11 g00 + h00 g11 - h01 g10 - h10 g01 and c = det G,
    formed on the coordinates and split by :func:`_quadratic_spectra`.
    """
    n = len(g)
    e = np.concatenate([h.reshape(n, 4, -1), g.reshape(n, 4, -1)], axis=1)
    return _quadratic_spectra(fld, *(_PENCIL_SIGNS @ fld.mul(e[:, _PENCIL_LEFT], e[:, _PENCIL_RIGHT])).swapaxes(0, 1))


def _quadratic_spectra(fld, a, b, c) -> list:
    """The roots of a t^2 - b t + c, a != 0, for stacks a, b, c (N, m) of ``fld``, by the closed form.

    The sum of the roots tr = b/a, their product det = c/a and the
    discriminant disc = (b^2 - 4ac) / a^2 are formed on the coordinates,
    1/a as a's conjugates over their rational norm, and only they are
    unpacked, tr halved.  A real pair is (tr +- sqrt(disc)) / 2, larger
    first, the root taken of the discriminant itself; a complex pair with
    rational tr and det has modulus sqrt(det).  A pair whose root leaves
    the field, or a complex pair with surd coefficients, is left as the
    factor [det, -tr, 1].  Returns (reals, moduli, rest) per stacked
    polynomial.
    """
    inv, norm = fld._inverse(a)  # 1/a = inv / norm, and norm = 0 where a = 0
    if not norm.all():
        raise ValueError("singular system in exact solve")
    tr, det = fld.mul(np.stack([b, c]), inv)  # over norm
    disc = fld.mul(tr, tr) - 4 * norm[:, None] * det  # over norm^2
    return [_pair_split(*fld.unpack(tr[i, None], 2 * den), *fld.unpack(det[i, None], den),
                        *fld.unpack(disc[i, None], den * den))
            for i, den in enumerate(norm.tolist())]


_HALF = Radical(Fraction(1, 2))


def _pair_split(half_tr: Radical, det: Radical, disc: Radical):
    """(reals, moduli, rest) of t^2 - 2 half_tr t + det, whose discriminant is disc."""
    if disc.sign() >= 0:
        try:
            half_sq = disc.sqrt() * _HALF
        except ValueError:
            return [], [], [det, half_tr * -2, Radical(1)]
        return [half_tr + half_sq, half_tr - half_sq], [], []
    if half_tr.is_rational() and det.is_rational():
        try:
            return [], [Radical.root(det.as_fraction())], []
        except ValueError:  # a radicand that bounded trial division cannot split
            pass
    return [], [], [det, half_tr * -2, Radical(1)]


def _split_spectrum(m: np.ndarray):
    """Split the characteristic polynomial of an exact matrix into exact roots.

    Returns (reals, moduli, rest): the exact real eigenvalues found, the
    exact moduli of the complex-conjugate pairs found, and the factor of
    the characteristic polynomial left unsplit (empty when it split
    completely).  A 1x1 matrix is its own eigenvalue (a 0x0 one has none),
    and a 2x2 matrix is the pencil with H = I, split by the closed form of
    :func:`_quadratic_spectra` whatever its coefficients.  Other roots come
    from the rational root search, and a quadratic remainder takes the same
    closed form; ``rest`` is rational whenever ``reals`` is not empty.  A
    square root whose radicand bounded trial division cannot split leaves
    its factor in ``rest``.
    """
    n = m.shape[0]
    if n <= 1:
        return [Radical(x) for x in m.ravel()], [], []
    if n == 2:  # the pencil with H = den I: a = den^2, b = den tr and c = det, all over den^2
        fld, ((num, den),) = multiquad._smallest_field(m)
        a = np.zeros((1, fld.m), dtype=object)
        a[0, 0] = den * den
        det = fld.mul(num[0, 0], num[1, 1]) - fld.mul(num[0, 1], num[1, 0])
        return _quadratic_spectra(fld, a, den * (num[0, 0] + num[1, 1])[None], det[None])[0]
    coeffs = char_poly(m)
    if not all(c.is_rational() for c in coeffs):
        return [], [], coeffs
    roots, rem = rational_roots([c.as_fraction() for c in coeffs])
    reals = [Radical(r) for r in roots]
    if len(rem) != 3:
        return reals, [], rem if len(rem) > 3 else []
    # the quadratic left, rem[2] t^2 + rem[1] t + rem[0], on integer coordinates over Q
    den = math.lcm(*(x.denominator for x in rem))
    a, b, c = (np.array([[x.numerator * (den // x.denominator)]], dtype=object) for x in (rem[2], -rem[1], rem[0]))
    more, moduli, rest = _quadratic_spectra(multiquad.field_of(frozenset(), True), a, b, c)[0]
    return reals + more, moduli, rest


def certified_spectral_radius(rep: np.ndarray):
    """Spectral radius of an exact matrix, certified when possible.

    Returns (value_float, exact_value_or_None).  ``exact_value`` is a
    Radical equal to the spectral radius whenever the characteristic
    polynomial resolves into rational roots plus at most a quadratic
    factor, or when the largest rational root provably dominates the
    rest (Cauchy bound).
    """
    reals, moduli, rest = _split_spectrum(rep)
    best = max([abs(x) for x in reals] + moduli, default=Radical(0))
    # the float guard only backs a rigorous-by-margin comparison; if the
    # margin is thin we decline to certify
    if not rest or (reals and float(best) > _cauchy_bound(rest) + 1e-9):
        return float(best), best
    return float(max(abs(np.linalg.eigvals(to_float_matrix(rep))), default=0.0)), None


def exact_eigenvalues_symmetric(m: np.ndarray) -> list[Radical] | None:
    """Eigenvalues of a small exact matrix with a real spectrum, or None.

    The matrix is symmetric or similar to a symmetric one: ``spectral.c_k``
    feeds it H^-1 G' for two symmetric Gram matrices, H positive definite.
    Succeeds when the characteristic polynomial splits into rational
    roots and at most one quadratic factor with representable surd.
    """
    reals, moduli, rest = _split_spectrum(m)
    return None if moduli or rest else reals


def cholesky_exact(m: np.ndarray) -> np.ndarray:
    """Upper-triangular U with m = U^T U, for symmetric PD exact m.

    Raises ``ValueError`` when a pivot square root leaves the field.
    """
    n = m.shape[0]
    a = [[Radical(m[i, j]) for j in range(n)] for i in range(n)]
    u = [[Radical(0)] * n for _ in range(n)]
    for k in range(n):
        pivot = a[k][k] - sum((u[i][k] * u[i][k] for i in range(k)), Radical(0))
        if pivot.sign() <= 0:
            raise ValueError("matrix is not positive definite")
        u[k][k] = pivot.sqrt()
        inv = Radical(1) / u[k][k]
        for j in range(k + 1, n):
            s = a[k][j] - sum((u[i][k] * u[i][j] for i in range(k)), Radical(0))
            u[k][j] = s * inv
    return FIELDS[EXACT].array(u)
