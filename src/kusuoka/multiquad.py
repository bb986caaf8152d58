"""Exact scalars and matrices as integer coordinates over a multiquadratic field.

A scalar of the exact backend is a rational combination of square roots;
here a stack of them is one integer array (coordinates on a list of square
roots, last axis) over one common denominator, so a whole table advances
by integer array products and no ``Radical`` is built until a result is
read.  :class:`_Span` is such a list of roots, :class:`Multiquad` the field
Q(sqrt g_1, ..., sqrt g_t) with its product, exact sign and inverse,
:meth:`Multiquad.matmul` the stacked d x d matrix product every word table
and process table is built by, and :meth:`Multiquad.eliminate` the one
fraction-free elimination: leading minors, determinants, solves and null
spaces.
:class:`MapField` holds a system's maps and weight in one such field.  The
float backend is the same code with the one root sqrt(1) and float64
coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .exactnum import Radical


def _terms(xs):
    """The (radicand, coefficient) terms of each scalar of xs, or None for float scalars.

    One walk over the entries serves both their radicands (:func:`_radicands_of`)
    and their coordinates (:meth:`_Span._pack_scalars`).
    """
    if not linalg.array_field(xs).exact:
        return None
    return [(x if type(x) is Radical else Radical(x)).terms() for x in xs]


def _radicands_of(terms) -> set:
    """The squarefree radicands in the :func:`_terms` of some scalars."""
    return {r for t in terms for r, _ in t} if terms is not None else set()


def _support(num) -> list:
    """The coordinates of a stack (..., m') that are nonzero somewhere.

    ``logical_or.reduce`` reads the entries' own truth values, where ``any``
    first casts every Python int of an object stack to bool.
    """
    return np.logical_or.reduce(num.reshape(-1, num.shape[-1]), axis=0).nonzero()[0].tolist()


class _Span:
    """Scalars as integer coordinates on a list of square roots.

    An element is sum_b x_b scale[b] sqrt(radicand[b]), radicand[b]
    squarefree and distinct, stored as its m coordinates x_b.  A stack of
    elements is a pair (num, den): ``num`` has the coordinates on its last
    axis, and ``den`` is one positive int for the whole stack.  On the exact
    backend ``num`` holds Python ints in object arrays; on the float backend
    the only root is sqrt(1), ``num`` is float64 and ``den`` is 1.
    """

    def __init__(self, radicand: list, scale: list, exact: bool):
        self.exact = exact
        self.radicand, self.scale = radicand, scale
        self.m = len(radicand)
        self.where = {r: b for b, r in enumerate(radicand)}
        self.by_radicand = sorted(range(self.m), key=radicand.__getitem__)
        # (coordinate, radicand, scale) by increasing radicand: the order of a Radical's terms
        self._terms_plan = [(b, radicand[b], scale[b]) for b in self.by_radicand]

    @classmethod
    def roots(cls, radicands, exact: bool) -> "_Span":
        """The square roots of these radicands (of 1 when there are none), by increasing radicand, with unit scales."""
        radicand = sorted(radicands or {1})
        return cls(radicand, [1] * len(radicand), exact)

    def _pack_scalars(self, xs, terms=None):
        """Scalars -> (num, den): their coordinates (len, m) over one denominator.

        ``terms``, when given, is :func:`_terms` of xs, already walked.
        """
        if not self.exact:
            return np.asarray(xs, dtype=float).reshape(-1, 1), 1
        # coordinate b of x is c / scale[b] for its term c sqrt(radicand[b]): (flat index, numerator, denominator)
        where, scale, m = self.where, self.scale, self.m
        terms = _terms(xs) if terms is None else terms
        try:
            coords = [(k * m + where[r], *c.as_integer_ratio()) for k, t in enumerate(terms) for r, c in t]
        except KeyError:
            bad = next(x for x, t in zip(xs, terms) if any(r not in where for r, _ in t))
            raise ValueError(f"{bad} lies outside the field of the quadratic forms") from None
        if any(s != 1 for s in scale):
            coords = [(i, p, q * scale[i % m]) for i, p, q in coords]
        den = math.lcm(*{q for *_, q in coords})
        flat = [0] * (len(xs) * m)
        for i, p, q in coords:
            flat[i] = p * (den // q)
        g = math.gcd(den, *flat)
        if g > 1:
            flat, den = [x // g for x in flat], den // g
        return np.array(flat, dtype=object).reshape(len(xs), m), den

    def pack_array(self, xs, terms=None):
        """An array of scalars -> (num, den), num of shape xs.shape + (m,); ``terms`` as for :meth:`_pack_scalars`."""
        if not self.exact:
            return np.asarray(xs, dtype=float)[..., None], 1
        xs = np.asarray(xs)
        num, den = self._pack_scalars(xs.ravel(), terms)
        return num.reshape(xs.shape + (self.m,)), den

    def _convert(self, src: "_Span", num, den):
        """Coordinates (..., src.m) on the roots of ``src`` of elements that lie in this span, as a stack here.

        A stack already on these roots is returned as it is.
        """
        if src.radicand == self.radicand and src.scale == self.scale:
            return num, den
        lcm = math.lcm(*self.scale)
        out = np.zeros(num.shape[:-1] + (self.m,), dtype=num.dtype)
        for b, r in enumerate(self.radicand):
            k = src.where.get(r)
            if k is not None:
                out[..., b] = num[..., k] * (src.scale[k] * lcm // self.scale[b])
        return self._reduce(out, den * lcm)

    def _reduce(self, num, den):
        """Divide out the common factor; float stacks keep den 1."""
        if den == 1:
            return num, 1
        if not self.exact:
            return num / den, 1
        g = math.gcd(den, *num.ravel().tolist())
        return (num // g, den // g) if g > 1 else (num, den)

    @staticmethod
    def join(stacks):
        """Concatenate stacks over one common denominator."""
        den = math.lcm(*(d for _, d in stacks))
        return np.concatenate([num * (den // d) for num, d in stacks]), den

    def sub(self, x, y):
        """x - y for two stacks whose shapes broadcast."""
        if x[1] == y[1]:
            return self._reduce(x[0] - y[0], x[1])
        den = math.lcm(x[1], y[1])
        return self._reduce(x[0] * (den // x[1]) - y[0] * (den // y[1]), den)

    def used(self, num) -> set:
        """The radicands whose coordinate is nonzero somewhere in num (..., m)."""
        return {r for b, r in enumerate(self.radicand) if (num[..., b] != 0).any()}

    def unpack(self, num, den) -> list:
        """Elements (N, m) back to scalars of the backend.

        An exact row is read one coordinate at a time by increasing radicand,
        with each coordinate's scale fixed when the span is made: one
        ``Fraction`` per nonzero coordinate, and the terms, already in
        ``Radical``'s order, go to its trusted constructor with no dict and
        no sort.
        """
        if not self.exact:
            return self.unpack_array(num, den).tolist()
        plan, build = self._terms_plan, Radical._from_sorted
        return [build([(r, Fraction(s * row[b], den)) for b, r, s in plan if row[b]])
                for row in np.asarray(num).tolist()]

    def unpack_array(self, num, den) -> np.ndarray:
        """Elements (..., m) back to one array of the backend's scalars, of shape (...)."""
        if not self.exact:
            return num[..., 0] if den == 1 else num[..., 0] / den
        return np.array(self.unpack(num.reshape(-1, self.m), den), dtype=object).reshape(num.shape[:-1])


class Multiquad(_Span):
    """The field Q(sqrt g_1, ..., sqrt g_t), a span of m = 2^t roots closed under products.

    Its basis is e_b = sqrt(prod of the g_l with bit l set in b) =
    scale[b] sqrt(radicand[b]), so that e_i e_j = common[i & j] e_(i^j),
    common[k] being the product of the g_l with bit l set in k.  Set-up is
    linear in m.  The float field has t = 0.
    """

    def __init__(self, radicands, exact: bool):
        """The smallest such field holding sqrt(r) for every squarefree r in ``radicands``.

        The generators are picked greedily by increasing radicand.
        """
        gens, group = [], {1}
        if exact:
            for r in sorted(radicands):
                if r not in group:
                    gens.append(r)
                    group |= {x * r // math.gcd(x, r) ** 2 for x in group}
        m = 1 << len(gens)
        self.gens = gens
        # e_b = s_b sqrt(r_b) with r_b squarefree; common[b] is the product of the g_l of b
        scale, radicand, common = [1] * m, [1] * m, [1] * m
        for b in range(1, m):
            low = b & (b - 1)
            g = gens[(b ^ low).bit_length() - 1]
            c = math.gcd(radicand[low], g)
            scale[b] = scale[low] * c
            radicand[b] = radicand[low] * g // (c * c)
            common[b] = common[low] * g
        super().__init__(radicand, scale, exact)
        self.common = common
        self.root = [math.sqrt(r) for r in radicand]

    def holding(self, radicands) -> "Multiquad":
        """This field when it holds sqrt(r) for every r of ``radicands``, else the smallest field holding both."""
        return self if self.where.keys() >= radicands else field_of(frozenset(self.radicand) | radicands, self.exact)

    def pack_holding(self, xs):
        """(field, stack): this field, or the smallest holding it and the scalars xs (1-d), and xs packed there in one walk."""
        terms = _terms(xs)
        fld = self.holding(_radicands_of(terms))
        return fld, fld.pack_array(xs, terms)

    def _mul_table(self, x):
        """Multiplication by each element of x (..., m): out[..., j, k] is the e_k part of x e_j."""
        out = np.zeros(x.shape + (self.m,), dtype=x.dtype)
        j = np.arange(self.m)
        common = np.array(self.common, dtype=x.dtype)
        for i in _support(x):
            out[..., j, i ^ j] = common[i & j] * x[..., i, None]
        return out

    def _products(self, out, term, x, y):
        """Add common[i & j] term(i, j) at coordinate i ^ j of ``out`` for the coordinates i and j nonzero somewhere in x and in y.

        The loop of every field product; a coordinate that is zero throughout
        a factor costs nothing.  A field of one coordinate takes its one pair.
        """
        left, right = (_support(x), _support(y)) if self.m > 1 else ([0], [0])
        for i in left:
            for j in right:
                t, c = term(i, j), self.common[i & j]
                out[..., i ^ j] += t if c == 1 else c * t
        return out

    def mul(self, x, y):
        """Field product of two coordinate arrays (..., m'), m' <= m, elementwise."""
        if self.m == 1:
            return x * y
        out = np.zeros(np.broadcast(x, y).shape, dtype=x.dtype)
        return self._products(out, lambda i, j: x[..., i] * y[..., j], x, y)

    def matmul(self, x, y):
        """Stacked matrix product of two stacks: (..., a, b, m) by (..., b, c, m) -> (..., a, c, m), reduced.

        x and y are (num, den) pairs whose leading axes broadcast.  One integer
        matrix product per pair of coordinates that are nonzero somewhere in
        x and in y (:meth:`_products`).
        """
        (xn, xd), (yn, yd) = x, y
        if self.m == 1:
            return self._reduce((xn[..., 0] @ yn[..., 0])[..., None], xd * yd)
        shape = np.broadcast_shapes(xn.shape[:-3], yn.shape[:-3]) + (xn.shape[-3], yn.shape[-2], self.m)
        out = self._products(np.zeros(shape, dtype=xn.dtype), lambda i, j: xn[..., i] @ yn[..., j], xn, yn)
        return self._reduce(out, xd * yd)

    def sign(self, x):
        """Exact sign of each field element of x (..., m'), as an int array.

        Splits x = u + v sqrt(g) on the last generator: the sign is that of u
        or v when they agree, else sign(u) * sign(u^2 - g v^2), one level
        down, formed only where they disagree.  A stack with v = 0 throughout
        is the stack u.
        """
        k = x.shape[-1]
        if k == 1:
            return np.where(x[..., 0] > 0, 1, np.where(x[..., 0] < 0, -1, 0))
        half = k // 2
        u, v = x[..., :half], x[..., half:]
        su = self.sign(u)
        if not v.any():
            return su
        sv = self.sign(v)
        out = np.where(su != 0, su, sv)
        mixed = su * sv < 0
        if mixed.any():
            u, v = u[mixed], v[mixed]
            out[mixed] = su[mixed] * self.sign(self.mul(u, u) - self.gens[half.bit_length() - 1] * self.mul(v, v))
        return out

    def surd_sign(self, u, a, b):
        """Exact sign of u + sqrt(a) - sqrt(b) for field elements u and a, b >= 0 of one shape (..., m').

        Where sign(u) and sign(a - b) = sign(sqrt(a) - sqrt(b)) agree, or
        one is 0, that is the sign.  Elsewhere it is sign(u) times the sign
        of u^2 - (sqrt(a) - sqrt(b))^2 = z + 2 sqrt(ab), z = u^2 - a - b: 1
        when z > 0, sign(ab) when z = 0, sign(4ab - z^2) when z < 0.  No
        square root is taken.
        """
        su, sd = self.sign(u), self.sign(a - b)
        out = np.where(su != 0, su, sd)
        mixed = su * sd < 0
        if mixed.any():
            u, a, b = u[mixed], a[mixed], b[mixed]
            z, ab = self.mul(u, u) - a - b, self.mul(a, b)
            sz = self.sign(z)
            far = np.where(sz == 0, self.sign(ab), self.sign(4 * ab - self.mul(z, z)))
            out[mixed] = su[mixed] * np.where(sz > 0, 1, far)
        return out

    @staticmethod
    def tournament(items, beats):
        """The first largest candidate of every batch: arrays (..., N, c) -> (..., c), N >= 1.

        ``items`` share their leading axes and the candidate axis -2;
        beats(b, a) takes the two lists of candidates that meet and is True
        where b is strictly larger than a.  Pairs meet in index order and
        the earlier keeps a tie, so the winner is the first largest.
        """
        while items[0].shape[-2] > 1:
            n = items[0].shape[-2]
            a = [x[..., 0:n - 1:2, :] for x in items]
            b = [x[..., 1::2, :] for x in items]
            win = beats(b, a)[..., None]
            items = [np.concatenate([np.where(win, xb, xa), x[..., n - n % 2:, :]], axis=-2)
                     for x, xa, xb in zip(items, a, b)]
        return [x[..., 0, :] for x in items]

    def max_abs(self, x):
        """The largest |x_i| along axis -2 of field elements (..., N, m), N >= 1, as (..., m)."""
        x = np.where((self.sign(x) < 0)[..., None], -x, x)
        return self.tournament([x], lambda b, a: self.sign(b[0] - a[0]) > 0)[0]

    def quotient_floats(self, x, dx, y, dy) -> list:
        """float(x_i / y) for field elements x (N, m) over dx and y (m,) over dy.

        Rounded as ``float(Radical)`` rounds: each rational coordinate of the
        exact quotient correctly rounded, times sqrt of its radicand, summed
        by increasing radicand.  Plain lists: these are a few numbers each.
        A rational y (every gasket's masses) divides x by its one coordinate.
        """
        if y[1:].any():
            inv, norm = self._inverse(y)
            x = self.mul(x, inv)
        else:
            norm = y[0]
        den = dx * norm
        return [
            sum(self.scale[b] * row[b] * dy / den * self.root[b] for b in self.by_radicand if row[b])
            for row in x.tolist()
        ]

    def _inverse(self, y):
        """(c, y c) for elements y (..., m), with y c rational: 1/y = c / (y c), as c (..., m) and y c (...).

        Multiplying y by its conjugate in each generator in turn leaves a
        rational; c is the product of the conjugates.  A generator that no
        element of y uses is skipped, so a rational y gives (1, y).
        """
        inv = np.zeros(y.shape, dtype=y.dtype)
        inv[..., 0] = 1
        used = 0  # the generators y uses: a product by a conjugate only clears bits
        if self.gens:
            for b in _support(y):
                used |= b
        for bit in range(len(self.gens)):
            if used >> bit & 1:
                conj = np.where(np.arange(self.m) >> bit & 1 == 1, -y, y)
                inv, y = self.mul(inv, conj), self.mul(y, conj)
        return inv, y[..., 0][()]

    def divide(self, x, y):
        """x_i / y_i for two stacks of elements (rows, m), every y_i nonzero, as one stack.

        1/y_i is c_i / (y_i c_i) with y_i c_i rational (:meth:`_inverse`), and
        the quotients go over the lcm of those norms.  On the float backend
        this is x / y.
        """
        (xn, xd), (yn, yd) = x, y
        if not self.exact:
            return xn / yn, 1
        inv, norm = self._inverse(yn)
        lcm = math.lcm(*norm.tolist())
        return self._reduce(self.mul(xn, inv) * (yd * (lcm // norm))[:, None], xd * lcm)

    def eliminate(self, a):
        """Fraction-free (Bareiss) elimination of stacked [A | B] (N, d, d + r, m) with integer coordinates.

        Step k takes as pivot p the first row without a pivot that is nonzero
        in column k, moves it to row k (the determinant changes sign if it
        moved), and replaces each x of every other row without a pivot by
        (p x - a[i, k] a[k, j]) / q, q the pivot before (1 before the first).
        By Sylvester's identity the quotient is a minor of [A | B], so it has
        integer coordinates; it is formed as (p x - a[i, k] a[k, j]) c / (q c),
        c the product of q's conjugates, whose norm q c is an integer.  A
        column with no such row is free and keeps q, so the pivot columns are
        the first independent columns of A.  Back substitution is fraction-free
        too: with D the last pivot, y = D x has rows (D b_j - sum_(l > j)
        a[j, l] y_l) / a[j, j], exact by Cramer's rule, for every column b that
        is not a pivot column throughout; D is inverted once.

        Returns (lead (N, d, m), det (N, m), rref): A's leading principal
        minors up to the first that vanishes or needs an exchange (0 past it)
        and determinants, with integer coordinates; and the reduced row
        echelon form (num (N, d, d + r, m), den) of [A | B], pivot column j's
        row in row j and zero rows at free columns: [I | A^-1 B] where A is
        invertible, and column f of A's part, f free, is e_f minus the kernel
        vector whose free coordinates are 0 but the f-th, which is 1.
        """
        a = a.copy()
        count, d, cols = a.shape[:3]
        rows, each = np.arange(d), np.arange(count)
        q = np.zeros((count, self.m), dtype=a.dtype)
        q[:, 0] = 1
        lead = np.zeros((count, d, self.m), dtype=a.dtype)
        flips = np.ones(count, dtype=int)
        leading = np.ones((count, d + 1), dtype=bool)  # lead[:, k] is a leading minor where leading[:, k]
        pivot = np.zeros((count, d), dtype=bool)  # row j holds the pivot of column j
        for k in range(d):
            lead[:, k] = a[:, k, k]
            open_ = ~pivot & a[:, :, k].any(axis=-1)
            leading[:, k + 1] = leading[:, k] & open_[:, k]
            pivot[:, k] = found = open_.any(axis=1)
            if leading[:, k + 1].all():  # every pivot so far sat in its row: rows k + 1 on take the step
                lo, live = k + 1, None
            else:
                src = open_.argmax(axis=1)
                move = found & (src != k)
                n, s = each[move], src[move]
                a[n, k], a[n, s] = a[n, s], a[n, k]
                flips[move] *= -1
                live = found[:, None] & ~pivot
                lo = live.any(axis=0).argmax() if live.any() else d
            if lo < d:
                rest = (self.mul(a[:, k, k, None, None], a[:, lo:, k:])
                        - self.mul(a[:, lo:, k, None], a[:, k, None, k:]))
                if k:  # the pivot before the first is 1
                    c, norm = self._inverse(q)
                    rest = self.mul(rest, c[:, None, None]) // norm[:, None, None, None]
                a[:, lo:, k:] = rest if live is None else np.where(live[:, lo:, None, None], rest, a[:, lo:, k:])
            q = np.where(found[:, None], a[:, k, k], q)
        num, den = np.zeros_like(a), 1
        span = np.ones(cols, dtype=bool)  # the columns that are not a pivot column throughout
        span[:d] = ~pivot.all(axis=0)
        if span.any():
            c, norm = self._inverse(np.where(pivot[..., None], a[:, rows, rows], q[:, None]))
            y = self.mul(q[:, None, None], np.where(pivot[..., None, None], a[:, :, span], 0))
            for j in reversed(range(d)):
                y[:, j] = self.mul(y[:, j], c[:, j, None]) // norm[:, j, None, None]
                y[:, :j] -= self.mul(a[:, :j, j, None], y[:, j, None])
            c, norm = self._inverse(q)
            den = math.lcm(*norm.tolist())
            num[:, :, span] = self.mul(y, c[:, None, None]) * (den // norm)[:, None, None, None]
        diagonal = np.zeros((count, d), dtype=object)
        diagonal[pivot] = den
        num[:, rows, rows, 0] = diagonal
        lead = np.where(leading[:, :d, None], lead, 0)
        det = np.where(pivot.all(axis=1)[:, None], flips[:, None] * q, 0)
        return lead, det, self._reduce(num, den)

    def solve(self, a, b):
        """x with A x = B for stacks A (N, d, d, m) and B (N, d, r, m), as one stack (N, d, r, m) over one denominator.

        [A | B] over the lcm of their denominators goes through
        :meth:`eliminate`; ValueError when some A is singular.
        """
        (an, ad), (bn, bd) = a, b
        lcm = math.lcm(ad, bd)
        _, det, (num, den) = self.eliminate(np.concatenate([an * (lcm // ad), bn * (lcm // bd)], axis=2))
        if not det.any(axis=-1).all():
            raise ValueError("singular system in exact solve")
        return self._reduce(num[:, :, an.shape[1]:], den)


class MapField(NamedTuple):
    """A system's maps and weight packed in one :class:`Multiquad` that may hold more roots.

    ``maps`` is (num (n, d, d, m), den) and ``energy`` (num (d, d, m), den).
    Every table that is multiplied by the maps lives in ``fld``, so one
    :meth:`Multiquad.matmul` advances it.
    """

    fld: Multiquad
    maps: tuple
    energy: tuple

    @property
    def identity(self):
        """I as a stack (d, d, m) over 1; coordinate 0 is the root sqrt(1)."""
        num = np.zeros_like(self.energy[0])
        num[..., 0] = np.eye(len(num), dtype=int)
        return num, 1

    def holding(self, radicands) -> "MapField":
        """These maps and E, moved into the smallest field also holding sqrt(r) for each r of ``radicands`` if this one does not."""
        fld = self.fld.holding(radicands)
        if fld is self.fld:
            return self
        return MapField(fld, fld._convert(self.fld, *self.maps), fld._convert(self.fld, *self.energy))


def map_field(packed, energy, radicands=()) -> MapField:
    """The maps of ``packed`` (``quadform._pack_maps``), moved by one :meth:`_Span._convert`, and E, in the smallest field holding them and sqrt(r) for each r of ``radicands``."""
    span, te = packed.span, _terms(energy.ravel())
    fld = field_of(frozenset(set(span.radicand) | _radicands_of(te) | set(radicands)), span.exact)
    return MapField(fld, fld._convert(span, packed.a, packed.den), fld.pack_array(energy, te))


def _smallest_field(*arrays):
    """The smallest field holding the entries of these exact arrays, and each array packed in it: (field, stacks)."""
    terms = [_terms(np.ravel(a)) for a in arrays]
    fld = field_of(frozenset(set().union(*map(_radicands_of, terms))), linalg.array_field(arrays[0]).exact)
    return fld, [fld.pack_array(a, t) for a, t in zip(arrays, terms)]


def minor_signs(mats) -> tuple[np.ndarray, np.ndarray]:
    """The signs of the leading principal minors (N, d) and of the determinants (N,) of matrices (N, d, d).

    The matrices are packed in the smallest field holding their entries and
    eliminated together (:meth:`Multiquad.eliminate`); the leading minors
    past the first that vanishes read 0.
    """
    fld, ((num, _),) = _smallest_field(mats)
    lead, det, _ = fld.eliminate(num)
    return fld.sign(lead), fld.sign(det)


def solve(m, b) -> np.ndarray:
    """x with m x = b for an exact nonsingular matrix m (d, d) and b (d, r) or (d,), of b's shape.

    Solved by :meth:`Multiquad.solve` in the smallest field holding both;
    ValueError when m is singular.
    """
    fld, ((mn, md), (bn, bd)) = _smallest_field(m, b)
    x, den = fld.solve((mn[None], md), (bn.reshape(1, len(m), -1, fld.m), bd))
    return fld.unpack_array(x[0], den).reshape(np.shape(b))


def nullspace(m) -> list:
    """A basis of the kernel of an exact square matrix: for each free column f of :meth:`Multiquad.eliminate`, in order, the vector whose coordinate f is 1 and whose other free coordinates are 0.

    A stack of matrices (N, d, d) is eliminated at once and gives one such list per matrix.
    """
    fld, ((num, _),) = _smallest_field(m)
    _, _, (rref, den) = fld.eliminate(num.reshape((-1,) + num.shape[-3:]))
    frees = [[f for f in range(len(r)) if not r[f, f].any()] for r in rref]
    for r, free in zip(rref, frees):
        r[free, free, 0] = -den  # -(I - rref) on the free columns
    bases = [[k[:, f] for f in free] for k, free in zip(fld.unpack_array(-rref, den), frees)]
    return bases if num.ndim == 4 else bases[0]


@lru_cache(maxsize=256)
def field_of(radicands: frozenset, exact: bool) -> Multiquad:
    """The :class:`Multiquad` of these radicands; a field is a value, so one object serves every table in it."""
    return Multiquad(radicands, exact)
