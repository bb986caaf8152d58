"""Packed coordinates of symmetric matrices and the quadratic-form kernel.

Cylinder masses, the beta-weights A(beta)^T E A(beta) of the mixing tables
and of the irreducibility constants, transfer values and the sampler's
conditionals all go through the quadratic forms Psi_s(B) = A_s B A_s^T,
their adjoints Psi*_s(B) = A_s^T B A_s and the weight E.  :class:`_Quad`
holds them as integer arrays over one multiquadratic field, so a whole level
of words advances by one matrix product.  The spectral constants read the
same Psi_s as matrices of the backend (:func:`psi_matrices`) with the
trace-free basis of :func:`trace_free`.  This module owns the packed layout
and is the only code that writes Psi_s in it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .exactnum import Radical
from .matsys import MatrixSystem

_GAP_BLOCK = 1 << 14  # alpha-beta pairs per block of the gap table


@lru_cache(maxsize=None)
def packed_pairs(d: int, antisymmetric: bool = False) -> tuple[tuple[int, int], ...]:
    """The (i, j) of each packed coordinate, row-major: i <= j, or i < j when antisymmetric."""
    return tuple((i, j) for i in range(d) for j in range(i + antisymmetric, d))


def psi_matrices(maps, antisymmetric: bool = False) -> np.ndarray:
    """Every Psi_s(B) = A_s B A_s^T in packed coordinates, as n D x D matrices of the maps' backend.

    A symmetric B is sum_q B[i, j] u_q over its D = d(d+1)/2 upper pairs
    (i, j), with units u_q = e_i e_j^T + e_j e_i^T (e_i e_i^T when i = j); an
    antisymmetric B the same over its strict upper pairs, with units
    e_i e_j^T - e_j e_i^T.  Column q is the image of u_q, so the matrices act
    on packed columns and M is their sum; the adjoints Psi*_s(B) =
    A_s^T B A_s are this function of the transposed maps.
    """
    a = np.stack(maps)
    pairs = np.array(packed_pairs(a.shape[1], antisymmetric), dtype=int).reshape(-1, 2)
    p, r = pairs[:, :1], pairs[:, 1:]  # rows
    i, j = pairs[:, 0], pairs[:, 1]  # columns
    off = i != j
    # Psi_s(u_q)[p, r] = a_pi a_rj + a_pj a_ri off the diagonal, a_pi a_ri on it
    out = a[:, p, i] * a[:, r, j]
    cross = a[:, p, j[off]] * a[:, r, i[off]]
    out[:, :, off] += -cross if antisymmetric else cross
    return out


def trace_free(system: MatrixSystem) -> np.ndarray:
    """A basis of the symmetric B with <B, I>_E = Tr(E B) = 0, as packed columns.

    The condition is one row rho_q = Tr(E u_q) in packed coordinates, with
    rho_0 = E_00 > 0, so f_q = u_q - (rho_q / rho_0) u_0 for q = 1 .. D-1 is a
    basis whose entries lie in the field of E; no square root is taken.  A
    trace-free packed vector's coordinates q >= 1 are its coordinates in this
    basis.  Returns the D x (D-1) matrix with the f_q as columns.
    """
    e, fld = system.energy, system.field
    pairs = packed_pairs(system.dim)
    out = fld.zeros((len(pairs), len(pairs) - 1))
    inv = fld.div(fld.one, e[0, 0])
    for q, (i, j) in enumerate(pairs[1:]):
        rho = e[i, j] if i == j else 2 * e[i, j]
        out[0, q] = -(rho * inv)
        out[q + 1, q] = fld.one
    return out


def unpack_symmetric(coords, d: int, field) -> np.ndarray:
    """The symmetric d x d matrix of the backend with these packed coordinates."""
    out = field.zeros((d, d))
    for c, (i, j) in zip(coords, packed_pairs(d)):
        out[i, j] = out[j, i] = c
    return out


class _Quad:
    """The maps Psi_s(B) = A_s B A_s^T and the weight E of one system, as arrays.

    The measure layer needs the word matrices only through these quadratic
    forms: P(alpha s) = Psi_s(P(alpha)) with P(alpha) = A(alpha) A(alpha)^T,
    nu(alpha) = <E, P(alpha)>, and the adjoint Psi*_s(B) = A_s^T B A_s on the
    beta side.

    A symmetric d x d matrix packs into its D = d(d+1)/2 upper-triangular
    entries, row-major, and <X, Y> = Tr(XY) weighs off-diagonal entries twice.
    Each entry is an element of the smallest field Q(sqrt g_1, ..., sqrt g_t)
    holding Psi and E, stored as m = 2^t coordinates in the basis
    e_b = sqrt(prod of the g_l with bit l set in b), so that
    e_i e_j = c_ij e_(i^j), c_ij being the product of the g_l common to i and
    j.  Every gasket needs t = 1 (g_1 = 3).  A stack of packed matrices (or of
    field elements) is a pair (num, den): ``num`` has the entries' coordinates
    on its last axis, and ``den`` is one positive int for the whole stack.  On
    the exact backend ``num`` holds Python ints in object arrays; on the float
    backend t = 0, ``num`` is float64 and ``den`` is 1.  A linear map is a
    stack of right operators: ``x @ op`` applies it to rows x.
    """

    def __init__(self, system: MatrixSystem):
        self.exact = system.backend == linalg.EXACT
        self.n = system.n_symbols
        self.dim = d = system.dim
        self.pairs = pairs = packed_pairs(d)
        self.weight = [1 if i == j else 2 for i, j in pairs]
        # psi[s, p, q] = Psi_s(u_q)[p]
        psi = list(psi_matrices(system.maps).ravel())
        e = [system.energy[i, j] for i, j in pairs]
        self._basis(psi + e)
        n, dd, m = self.n, len(pairs), self.m
        num, den = self._pack_scalars(psi)
        # mul[s, p, q, j, k]: coordinate k of Psi_s[p, q] * e_j
        mul = self._mul_table(num.reshape(n, dd, dd, m))
        self.psi = self._reduce(mul.transpose(0, 2, 3, 1, 4).reshape(n, dd * m, dd * m), den)
        # Psi*_s is the adjoint of Psi_s under <., .>: Psi*[q, p] = w_p / w_q Psi[p, q]
        w = np.array(self.weight, dtype=num.dtype)
        adj = mul * (2 * w[:, None] // w[None, :])[None, :, :, None, None]
        self.psi_star = self._reduce(adj.transpose(0, 1, 3, 2, 4).reshape(n, dd * m, dd * m), 2 * den)
        self.m_sum = (self.psi[0].sum(axis=0), self.psi[1])
        self.m_star_sum = (self.psi_star[0].sum(axis=0), self.psi_star[1])
        self.energy = self.pack(system.energy)
        self.ident = self.pack(system.field.identity(d))
        # <E, .> as one operator to the field coordinates
        num, den = self.energy
        self.nu_op = self._reduce(
            (self._mul_table(num.reshape(dd, m)) * w[:, None, None]).reshape(dd * m, m), den)
        # nu(ws) for every s from P(w): <E, Psi_s(P)> in one operator
        num, den = self.psi
        self.cond_op = self._reduce(
            np.concatenate([num[s] @ self.nu_op[0] for s in range(n)], axis=1),
            den * self.nu_op[1])

    # -- the field ------------------------------------------------------------

    def _basis(self, entries) -> None:
        gens, group = [], {1}
        if self.exact:
            for r in sorted({r for x in entries for r, _ in Radical(x).terms()}):
                if r not in group:
                    gens.append(r)
                    group |= {x * r // math.gcd(x, r) ** 2 for x in group}
        self.m = m = 1 << len(gens)
        self.gens = gens
        # e_b = s_b sqrt(r_b) with r_b squarefree
        self.scale, self.radicand = [1] * m, [1] * m
        for b in range(1, m):
            low = b & (b - 1)
            g = gens[(b ^ low).bit_length() - 1]
            c = math.gcd(self.radicand[low], g)
            self.scale[b] = self.scale[low] * c
            self.radicand[b] = self.radicand[low] * g // (c * c)
        self.where = {r: b for b, r in enumerate(self.radicand)}
        self.c = [[math.prod(g for l, g in enumerate(gens) if (i & j) >> l & 1)
                   for j in range(m)] for i in range(m)]
        self.by_radicand = sorted(range(m), key=self.radicand.__getitem__)
        self.root = [math.sqrt(r) for r in self.radicand]

    def _pack_scalars(self, xs):
        """Scalars -> (num, den): their coordinates (len, m) over one denominator."""
        if not self.exact:
            return np.array([[float(x)] for x in xs]), 1
        coords = [[Fraction(0)] * self.m for _ in xs]
        for row, x in zip(coords, xs):
            for r, c in Radical(x).terms():
                b = self.where.get(r)
                if b is None:
                    raise ValueError(f"{x} lies outside the field of the quadratic forms")
                row[b] = c / self.scale[b]
        den = math.lcm(*(c.denominator for row in coords for c in row))
        num = np.array([[c.numerator * (den // c.denominator) for c in row] for row in coords],
                       dtype=object).reshape(len(xs), self.m)
        return self._reduce(num, den)

    def _mul_table(self, x):
        """Multiplication by each element of x (..., m): out[..., j, k] is the e_k part of x e_j."""
        out = np.zeros(x.shape + (self.m,), dtype=x.dtype)
        for i in range(self.m):
            for j in range(self.m):
                out[..., j, i ^ j] = self.c[i][j] * x[..., i]
        return out

    def _reduce(self, num, den):
        """Divide out the common factor; float stacks keep den 1."""
        if not self.exact:
            return (num, 1) if den == 1 else (num / den, 1)
        g = math.gcd(den, *num.ravel().tolist())
        return (num // g, den // g) if g > 1 else (num, den)

    def _products(self, out, term):
        """Add c_ij term(i, j) at coordinate i ^ j of ``out``: the loop of every field product."""
        k = out.shape[-1]
        for i in range(k):
            for j in range(k):
                t = term(i, j)
                out[..., i ^ j] += t if self.c[i][j] == 1 else self.c[i][j] * t
        return out

    def mul(self, x, y):
        """Field product of two coordinate arrays (..., m'), m' <= m, elementwise."""
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=x.dtype)
        return self._products(out, lambda i, j: x[..., i] * y[..., j])

    def sign(self, x):
        """Exact sign of each field element of x (..., m'), as an int array.

        Splits x = u + v sqrt(g) on the last generator: the sign is that of u
        or v when they agree, else sign(u) * sign(u^2 - g v^2), one level down.
        """
        k = x.shape[-1]
        if k == 1:
            return np.where(x[..., 0] > 0, 1, np.where(x[..., 0] < 0, -1, 0))
        half = k // 2
        u, v = x[..., :half], x[..., half:]
        su, sv = self.sign(u), self.sign(v)
        norm = self.mul(u, u) - self.gens[half.bit_length() - 1] * self.mul(v, v)
        return np.where(su * sv >= 0, np.where(su != 0, su, sv), su * self.sign(norm))

    def max_abs(self, x):
        """The largest |x_i| of a stack of field elements (N, m), N >= 1, as coordinates."""
        x = np.where((self.sign(x) < 0)[:, None], -x, x)
        while len(x) > 1:
            odd = x[-1:] if len(x) % 2 else x[:0]
            a, b = x[0:len(x) - 1:2], x[1::2]
            x = np.concatenate([np.where((self.sign(b - a) > 0)[:, None], b, a), odd])
        return x[0]

    # -- stacks ---------------------------------------------------------------

    @staticmethod
    def join(stacks):
        """Concatenate stacks over one common denominator."""
        den = math.lcm(*(d for _, d in stacks))
        return np.concatenate([num * (den // d) for num, d in stacks]), den

    def sub(self, x, y):
        """x - y for two stacks of one shape."""
        den = math.lcm(x[1], y[1])
        return self._reduce(x[0] * (den // x[1]) - y[0] * (den // y[1]), den)

    def apply(self, x, op):
        return self._reduce(x[0] @ op[0], x[1] * op[1])

    def _each(self, table, ops):
        """Every map of ``ops`` on every row, as (rows, n, D*m) numerators and a den."""
        (num, den), (op, dop) = table, ops
        out = num @ op.transpose(1, 0, 2).reshape(op.shape[1], -1)
        return out.reshape(len(num), self.n, -1), den * dop

    def children(self, table):
        """Psi_s on every row: row i * n + s of the result is Psi_s(row i)."""
        out, den = self._each(table, self.psi)
        return self._reduce(out.reshape(-1, out.shape[2]), den)

    def parents(self, table):
        """Psi*_s on every row: row s * rows + i of the result is Psi*_s(row i)."""
        out, den = self._each(table, self.psi_star)
        return self._reduce(out.transpose(1, 0, 2).reshape(-1, out.shape[2]), den)

    def betas(self, k: int) -> list:
        """The beta-weights Psi*_w(E) = A(w)^T E A(w) of every word length 0 .. k.

        Entry j stacks the words of length j in word-index order, since
        Psi*_s(Psi*_w(E)) = Psi*_(sw)(E) is row s * n^(j-1) + index(w) of ``parents``.
        """
        out = [self.energy]
        for _ in range(k):
            out.append(self.parents(out[-1]))
        return out

    def nu(self, table):
        """<E, P> for every row, as field elements (rows, m)."""
        return self.apply(table, self.nu_op)

    def child(self, row, s):
        """Psi_s of one packed row."""
        return self.apply(row, (self.psi[0][s], self.psi[1]))

    def child_masses(self, row):
        """<E, Psi_s(row)> for every s, as field elements (n, m)."""
        num, den = self.apply(row, self.cond_op)
        return num.reshape(-1, self.m), den

    def scaled_ident(self, nus):
        """nu I for every field element nu (rows, m), packed."""
        num, den = nus
        out = np.zeros((len(num), len(self.pairs), self.m), dtype=num.dtype)
        for q, (i, j) in enumerate(self.pairs):
            if i == j:
                out[:, q] = num
        return out.reshape(len(num), -1), den

    def max_gap(self, x, y, prod):
        """max |<x_a, y_b> - prod_ab| over all pairs, as a scalar of the backend.

        Runs in blocks of rows of x, so no more than about ``_GAP_BLOCK``
        pairs are held at once.
        """
        block = max(1, _GAP_BLOCK // len(y[0]))
        best = []
        for lo in range(0, len(x[0]), block):
            num, den = self.sub(self.pair((x[0][lo:lo + block], x[1]), y),
                                (prod[0][lo:lo + block], prod[1]))
            best.append((self.max_abs(num.reshape(-1, self.m))[None], den))
        num, den = self.join(best)
        return self.unpack(self.max_abs(num)[None], den)[0]

    def pair(self, x, y):
        """<x_a, y_b> for every pair of rows, as field elements (a, b, m)."""
        (xn, xd), (yn, yd) = x, y
        xs = xn.reshape(len(xn), -1, self.m) * np.array(self.weight, dtype=xn.dtype)[:, None]
        ys = yn.reshape(len(yn), -1, self.m)
        out = np.zeros((len(xn), len(yn), self.m), dtype=xn.dtype)
        return self._products(out, lambda i, j: xs[:, :, i] @ ys[:, :, j].T), xd * yd

    def gram(self, t):
        """sum_a t[a, i] t[a, j] for field elements t (a, b, m), as (b, b, m).

        One matrix product over the row axis per pair of coordinates, so no
        (a, b, b) intermediate is built.
        """
        num, den = t
        out = np.zeros((num.shape[1], num.shape[1], self.m), dtype=num.dtype)
        return self._products(out, lambda i, j: num[:, :, i].T @ num[:, :, j]), den * den

    def pack(self, mat):
        """One symmetric matrix as a stack of one row."""
        return self.pack_coords([[mat[i, j] for i, j in self.pairs]])

    def pack_coords(self, rows):
        """Rows of packed coordinates, as scalars of the backend, as a stack."""
        num, den = self._pack_scalars([x for row in rows for x in row])
        return num.reshape(len(rows), -1), den

    def unpack(self, num, den) -> list:
        """Field elements (N, m) back to scalars of the backend."""
        if not self.exact:
            return [float(x) / den for x in num[:, 0]]
        return [
            Radical.from_terms({self.radicand[b]: Fraction(self.scale[b] * x[b], den)
                                for b in range(self.m)})
            for x in num
        ]

    def unpack_matrices(self, num, den, field) -> np.ndarray:
        """Packed rows back to symmetric matrices of the backend, as (rows, d, d)."""
        d, where = self.dim, {p: q for q, p in enumerate(self.pairs)}
        full = [where[min(i, j), max(i, j)] for i in range(d) for j in range(d)]
        vals = np.array(self.unpack(num.reshape(-1, self.m), den), dtype=field.dtype)
        return vals.reshape(len(num), -1)[:, full].reshape(len(num), d, d)

    def quotient_floats(self, x, dx, y, dy) -> list:
        """float(x_i / y) for field elements x (N, m) over dx and y (m,) over dy.

        Rounded as ``float(Radical)`` rounds: each rational coordinate of the
        exact quotient correctly rounded, times sqrt of its radicand, summed
        by increasing radicand.  Multiplying y by its conjugate in each
        generator in turn leaves a rational y[0]; the product of the
        conjugates is y[0] / y.  Plain lists: these are a few numbers each.
        """
        y, inv = list(y), [1] + [0] * (self.m - 1)
        for bit in range(len(self.gens)):
            conj = [-v if b >> bit & 1 else v for b, v in enumerate(y)]
            inv, y = self._mul_list(inv, conj), self._mul_list(y, conj)
        den = dx * y[0]
        return [
            sum(self.scale[b] * row[b] * dy / den * self.root[b] for b in self.by_radicand if row[b])
            for row in (self._mul_list(list(r), inv) for r in x)
        ]

    def _mul_list(self, x, y) -> list:
        out = [0] * self.m
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[i ^ j] += self.c[i][j] * xi * yj
        return out
