"""Packed coordinates of symmetric matrices and the quadratic-form kernel.

Cylinder masses, the beta-weights A(beta)^T E A(beta) of the mixing tables,
the second moments of the irreducibility constants, transfer values and the
sampler's conditionals all go through the quadratic forms Psi_s(B) = A_s B
A_s^T, their adjoints Psi*_s(B) = A_s^T B A_s and the weight E.
:class:`_Quad` holds them as integer arrays over one multiquadratic field
(:class:`~kusuoka.multiquad.Multiquad`), so a whole level of words
advances by one matrix product, and a form summed over a level by one
congruence (:meth:`_Quad.congruence`).  Every Psi_s entry is formed once per
kernel, on integer coordinates of the map entries in the square roots they
use (:func:`_psi`); the same kernel decides exact validation and derives
theta1's reps of M = sum_s Psi_s, the trace-free basis and theta1, so one
kernel serves a whole computation.
:func:`averaging_matrix` sums Psi for raw maps that have no weight E yet.
This module owns the packed layout and is the only code that writes Psi_s
in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import linalg
from .exactnum import Radical, format_exact
from .multiquad import Multiquad, _radicands_of, _Span, _support, _terms

if TYPE_CHECKING:  # matsys validates on this module's kernel
    from .matsys import MatrixSystem

_GAP_BLOCK = 1 << 14  # alpha-beta pairs per block of the gap table


@lru_cache(maxsize=None)
def packed_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The (i, j) of each packed coordinate, row-major, i <= j."""
    return tuple((i, j) for i in range(d) for j in range(i, d))


@lru_cache(maxsize=None)
def symmetric_index(d: int) -> tuple[int, ...]:
    """The packed coordinate of each entry (i, j) of a symmetric d x d matrix, row-major."""
    where = {p: q for q, p in enumerate(packed_pairs(d))}
    return tuple(where[min(i, j), max(i, j)] for i in range(d) for j in range(d))


# -- Psi_s from packed map entries --------------------------------------------


class _PackedMaps(NamedTuple):
    """The maps as integer coordinates a (n, d, d, m) over den on ``span``, the roots their entries use: their one walk.

    ``prod`` is the span of the products of the pairs of roots that one map
    uses together, and each (i, j, g, k) of ``terms`` says
    sqrt(r_i) sqrt(r_j) = g sqrt(r_i r_j / g^2), coordinate k of ``prod``,
    with g = gcd(r_i, r_j).
    """

    a: np.ndarray
    den: object
    span: _Span
    prod: _Span
    terms: list


def _pack_maps(maps) -> _PackedMaps:
    """Pack the maps once; every Psi_s is then formed on their coordinates (:func:`_psi`)."""
    a = np.array(maps)
    terms = _terms(a.ravel())
    span = _Span.roots(_radicands_of(terms), linalg.array_field(a).exact)
    num, den = span._pack_scalars(a.ravel(), terms)
    a = num.reshape(a.shape + (span.m,))
    # only roots that one map uses together are multiplied, so the cost grows
    # with the roots each map uses, not with the field they all generate
    rad = span.radicand
    used = (a.reshape(len(a), -1, span.m) != 0).any(axis=1).astype(int)  # (n, m)
    gcds = {(i, j): math.gcd(rad[i], rad[j]) for i, j in np.argwhere(used.T @ used).tolist()}
    prod = _Span.roots({rad[i] * rad[j] // g ** 2 for (i, j), g in gcds.items()}, span.exact)
    terms = [(i, j, g, prod.where[rad[i] * rad[j] // g ** 2]) for (i, j), g in sorted(gcds.items())]
    return _PackedMaps(a, den, span, prod, terms)


@lru_cache(maxsize=None)
def _entry_index(d: int) -> tuple:
    """Flat indices into a map's d*d entries for :func:`_psi`, and the positions of the strict pairs.

    Over the packed pairs (p, r) and (i, j): p*d + i and r*d + j index the
    two factors of a_pi a_rj, p*d + j and r*d + i those of a_pj a_ri on the
    strict columns i < j.
    """
    pairs = np.array(packed_pairs(d), dtype=int).reshape(-1, 2)
    p, r = pairs[:, :1], pairs[:, 1:]  # rows
    i, j = pairs[:, 0], pairs[:, 1]  # columns
    off = np.flatnonzero(i != j)  # in the order of the antisymmetric coordinates
    out = (p * d + i, r * d + j, p * d + j[off], r * d + i[off], off)
    for x in out:
        x.setflags(write=False)
    return out


def _psi(maps: _PackedMaps):
    """Every Psi_s(B) = A_s B A_s^T on packed coordinates: (symmetric, antisymmetric) on ``maps.prod`` over den^2.

    A symmetric B is sum_q B[i, j] u_q over its D = d(d+1)/2 upper pairs
    (i, j), with units u_q = e_i e_j^T + e_j e_i^T (e_i e_i^T when i = j); an
    antisymmetric B the same over its D' strict upper pairs, with units
    e_i e_j^T - e_j e_i^T.  Entry [s, p, q] of the first, (n, D, D, m'), is
    coordinate p of Psi_s(u_q), so each Psi_s acts on packed columns and M
    is their sum; the second, (n, D', D', m'), is the same on the
    antisymmetric units.  Both come from one set of products.  The adjoints
    Psi*_s(B) = A_s^T B A_s are Psi_s of the transposed maps.
    """
    n, d = maps.a.shape[:2]
    a = maps.a.reshape(n, d * d, -1)

    def mul(x, y):
        # the result keeps x's memory layout, as x * y would, so a float sum over it adds in the same order
        out = np.zeros_like(x, shape=x.shape[:-1] + (maps.prod.m,))
        for i, j, g, k in maps.terms:
            t = x[..., i] * y[..., j]
            out[..., k] += t if g == 1 else g * t
        return out

    pi, rj, pj, ri, off = _entry_index(d)
    # Psi_s(u_q)[p, r] = a_pi a_rj +- a_pj a_ri off the diagonal, a_pi a_ri on it
    out = mul(a[:, pi], a[:, rj])
    cross = mul(a[:, pj], a[:, ri])
    anti = out[:, off][:, :, off] - cross[:, off]
    out[:, :, off] += cross
    return out, anti


def averaging_matrix(maps) -> np.ndarray:
    """M = sum_s Psi_s on packed symmetric coordinates, as D x D of the maps' backend.

    Column q is M(u_q) (see :func:`_psi`); M*, its adjoint under Tr(XY), is
    W^-1 M^T W, W the packed weights (1 on the diagonal pairs, 2 off it).
    """
    packed = _pack_maps(maps)
    return packed.prod.unpack_array(_psi(packed)[0].sum(axis=0), packed.den ** 2)


def _trace_free_coords(fld: Multiquad, e, d: int):
    """A basis of the symmetric B with <B, I>_E = Tr(E B) = 0 from E's packed entries e (D, m) in ``fld``.

    With rho_q = Tr(E u_q) and rho_0 = E_00 > 0, f_q = u_q - (rho_q / rho_0) u_0
    (q = 1 .. D-1) has entries in the field of E, and a trace-free packed
    vector's coordinates q >= 1 are its coordinates in it; 1/rho_0 is its
    conjugates over a rational norm.  Returns the f_q as columns, (D, D-1, m).
    """
    dd = len(e)
    inv, norm = fld._inverse(e[0])
    if norm < 0:
        inv, norm = -inv, -norm
    w = np.array([1 if i == j else 2 for i, j in packed_pairs(d)], dtype=e.dtype)
    out = np.zeros((dd, dd - 1, fld.m), dtype=e.dtype)
    out[0] = -fld.mul(e[1:] * w[1:, None], inv)
    for q in range(dd - 1):
        out[q + 1, q, 0] = norm
    return fld._reduce(out, norm)


def _float_radius(rep: np.ndarray) -> float:
    """Largest |eigenvalue| of a float rep: of the real parts when every |imag| < 1e-9, else of the moduli."""
    if rep.shape[0] == 0:
        return 0.0
    eigs = np.linalg.eigvals(rep)
    if np.max(np.abs(eigs.imag)) < 1e-9:
        eigs = eigs.real
    return max(float(abs(z)) for z in eigs)


@dataclass(frozen=True)
class Theta1Result:
    """Spectral radius of M off the identity, with exactness certificate.

    ``exact`` is None when no rational (or quadratic) certification was
    possible; ``value`` is always the float radius.  ``irreducible`` is
    False when the radius reaches 1, which the contract reports rather
    than raising.
    """

    value: float
    exact: Radical | None
    part_radius: dict
    part_exact: dict
    irreducible: bool

    def describe(self) -> str:
        if self.exact is not None:
            return f"{format_exact(self.exact)} (exact)"
        return f"{self.value !r} (float)"


def _theta1_of(reps) -> Theta1Result:
    """The spectral radius of M on both parts ``reps``, each certified when its polynomial splits (exact backend)."""
    exact = linalg.array_field(reps[0]).exact
    radius, certified = {}, {}
    for part, rep in zip(("traceless-symmetric", "antisymmetric"), reps):
        radius[part], certified[part] = (linalg.certified_spectral_radius(rep) if exact
                                         else (_float_radius(rep), None))
    value = max(radius.values())
    if any(x is None for x in certified.values()):
        overall, irreducible = None, value < 1.0 - 1e-9
    else:
        overall = max(certified.values())
        irreducible = (Radical(1) - overall).sign() > 0
    return Theta1Result(value, overall, radius, certified, irreducible)


class _Quad(Multiquad):
    """The analysis kernel of one system: Psi_s(B) = A_s B A_s^T and the weight E, as arrays.

    The measure layer needs the word matrices only through these quadratic
    forms: P(alpha s) = Psi_s(P(alpha)) with P(alpha) = A(alpha) A(alpha)^T,
    nu(alpha) = <E, P(alpha)>, and the adjoint Psi*_s(B) = A_s^T B A_s on the
    beta side.  The spectral constants read M = sum_s Psi_s.

    A symmetric d x d matrix packs into its D = d(d+1)/2 upper-triangular
    entries, row-major, and <X, Y> = Tr(XY) weighs off-diagonal entries twice.
    Each entry is an element of the smallest field holding Psi and E: the
    kernel is that :class:`Multiquad` with the members below.  Every gasket
    needs t = 1 (g_1 = 3).  A stack of packed matrices is a stack of field
    elements with the D entries' coordinates flattened on the last axis.  A
    linear map is a stack of right operators: ``x @ op`` applies it to rows x.

    The constructor packs the maps and forms every Psi_s once (:func:`_psi`),
    with no ``Radical`` product, and moves the symmetric Psi into this field
    once, as ``sym``; exact validation reads Psi and E off it
    (:meth:`validation`), so a measure is validated on the kernel it keeps.
    The other members are derived on first use and kept: the table ``psi``,
    the entries ``psi_star_entries``, ``energy``, ``ident``, the trace-free
    basis, theta1's two reps and theta1.
    """

    def __init__(self, system: MatrixSystem):
        self.system = system
        self.n, self.dim = system.n_symbols, system.dim
        self.pairs = pairs = packed_pairs(self.dim)
        self.weight = [1 if i == j else 2 for i, j in pairs]
        self.e = [system.energy[i, j] for i, j in pairs]
        self.packed = _pack_maps(system.maps)
        # sym[s, p, q] = Psi_s(u_q)[p], anti the same on the antisymmetric units, on the products of the maps' roots
        sym, self.anti = _psi(self.packed)
        prod = self.packed.prod
        super().__init__(prod.used(sym) | _radicands_of(_terms(self.e)), system.field.exact)
        self.sym = self._convert(prod, sym, self.packed.den ** 2)  # (n, D, D, m) in this field, over a den

    @cached_property
    def _psi_mul(self):
        """mul[s, p, q, j, k], coordinate k of Psi_s[p, q] * e_j in this field, over a den."""
        num, den = self.sym
        return self._mul_table(num), den

    @cached_property
    def psi(self):
        """Psi_s as right operators on packed rows: (n, D*m, D*m) over a den."""
        mul, den = self._psi_mul
        return self._reduce(mul.transpose(0, 2, 3, 1, 4).reshape(self.n, len(self.e) * self.m, -1), den)

    @cached_property
    def psi_star_entries(self):
        """Psi*_s, the adjoint of Psi_s under <., .>, as field elements (D, n*D, m) over a den.

        Entry [p, s*D + q] is 2 w_p / w_q Psi_s[p, q] over 2 den, since
        Psi*_s(x)[q] = sum_p w_p / w_q Psi_s[p, q] x_p: rows x (rows, D, m)
        times this stack, one field product, give every Psi*_s(x) side by side.
        """
        num, den = self.sym
        w = np.array(self.weight, dtype=num.dtype)
        adj = num * (2 * w[:, None] // w[None, :])[None, :, :, None]
        return self._reduce(adj.transpose(1, 0, 2, 3).reshape(len(w), -1, self.m), 2 * den)

    @cached_property
    def energy(self):
        return self.pack(self.system.energy)

    @cached_property
    def ident(self):
        return self.pack(self.system.field.identity(self.dim))

    @cached_property
    def trace_free(self):
        """The basis f_q of :func:`_trace_free_coords` in this field, as a stack of D-1 packed rows."""
        basis, den = _trace_free_coords(self, self.energy[0].reshape(len(self.e), self.m), self.dim)
        return basis.transpose(1, 0, 2).reshape(len(self.e) - 1, len(self.e) * self.m), den

    @cached_property
    def trace_free_gram(self):
        """H_ij = <f_i, f_j>_E = Tr(f_i E f_j) over the trace-free basis, as field elements (r, r, m) over a den.

        Formed as the entry sum of f_i * (E f_j) on the full d x d matrices
        of the packed rows, with no ``Radical`` product; the float backend
        adds in the order of ``(f_i * (E @ f_j)).sum()``.
        """
        (fnum, fden), (enum, eden), d = self.trace_free, self.energy, self.dim
        full = list(symmetric_index(d))
        f = fnum.reshape(len(fnum), -1, self.m)[:, full].reshape(len(fnum), d, d, self.m)
        w, wden = self.matmul((enum.reshape(-1, self.m)[full].reshape(d, d, self.m), eden), (f, fden))
        out = np.zeros((len(f), len(f), self.m), dtype=f.dtype)
        # one entry sum per pair: a batched sum may add the d*d terms in another order
        self._products(out, lambda i, j: np.array([[(a * b).sum() for b in w[..., j]] for a in f[..., i]],
                                                  dtype=f.dtype), f, w)
        return self._reduce(out, fden * wden)

    @cached_property
    def theta1_reps(self) -> tuple[np.ndarray, np.ndarray]:
        """M on the trace-free symmetric and on the antisymmetric matrices, as matrices of the backend.

        The first is (M F)[1:, :] in the trace-free basis F, the second M on
        the antisymmetric packed coordinates: both sums of this kernel's Psi,
        the second read off the products of the maps' roots, with no
        operator table.
        """
        (num, den), (fnum, fden), prod = self.sym, self.trace_free, self.packed.prod
        total, basis = num.sum(axis=0), fnum.reshape(len(fnum), len(self.e), self.m).transpose(1, 0, 2)
        rep = np.zeros(basis.shape, dtype=basis.dtype)
        self._products(rep, lambda i, j: total[:, :, i] @ basis[:, :, j], total, basis)
        return self.unpack_array(rep[1:], den * fden), prod.unpack_array(self.anti.sum(axis=0), self.packed.den ** 2)

    @cached_property
    def theta1(self) -> Theta1Result:
        return _theta1_of(self.theta1_reps)

    def validation(self) -> tuple:
        """(M*(E) = E, M(I) = I, Tr E = 1, E > 0, (det A_s != 0 for each s)), exact backend, from E's upper triangle.

        With M = sum_s Psi_s on packed columns in this field, M(I) is the sum
        of M's diagonal columns, and M*(E) = E reads sum_p w_p M[p, q] E_p =
        w_q E_q, one field product (M* is M's adjoint under Tr(XY), which
        weighs off-diagonal coordinates twice); the trace is E's packed
        diagonal.  For d <= 2 the rest are closed forms: E > 0 when E_00 > 0
        and det E > 0, and det A_s is Psi_s on the antisymmetric unit (d = 2)
        or Psi_s itself (d = 1).  For d >= 3 one elimination of E, bordered
        by I to D x D, and of the Psi_s gives E's leading minors and det Psi_s
        = det(A_s)^(d+1).
        """
        d, dd, m = self.dim, len(self.pairs), self.m
        diag = [q for q, (i, j) in enumerate(self.pairs) if i == j]
        e, eden = self.energy
        e = e.reshape(dd, m)
        total, tden = self.sym[0].sum(axis=0), self.sym[1]
        we = e * np.array(self.weight, dtype=e.dtype)[:, None]
        invariant = not (self.matmul((we[None], 1), (total, 1))[0][0] - tden * we).any()
        ident = total[:, diag].sum(axis=1)
        ident[diag, 0] -= tden
        trace = e[diag].sum(axis=0)
        if d <= 2:
            minors = e[:1] if d == 1 else np.stack([e[0], self.mul(e[0], e[2]) - self.mul(e[1], e[1])])
            definite = (self.sign(minors) > 0).all()
            dets = (self.anti if d == 2 else self.sym[0])[:, 0, 0]
        else:
            stack = np.zeros((self.n + 1, dd, dd, m), dtype=e.dtype)
            stack[0, :d, :d] = e[list(symmetric_index(d))].reshape(d, d, m)
            stack[0, range(d, dd), range(d, dd), 0] = 1
            stack[1:] = self.sym[0]
            lead, det, _ = self.eliminate(stack)
            definite = (self.sign(lead[0, :d]) > 0).all()
            dets = det[1:]
        return (invariant, not ident.any(), bool(trace[0] == eden and not trace[1:].any()), bool(definite),
                tuple(bool(x) for x in dets.any(axis=-1)))

    @cached_property
    def m_sum(self):
        """M = sum_s Psi_s as one operator."""
        return self.psi[0].sum(axis=0), self.psi[1]

    @cached_property
    def m_star_sum(self):
        """M* = sum_s Psi*_s as one operator."""
        num, den = self.psi_star_entries
        dd = len(self.pairs)
        mul = self._mul_table(num.reshape(dd, self.n, dd, self.m).sum(axis=1))  # [p, q, j, k]
        return mul.transpose(0, 2, 1, 3).reshape(dd * self.m, -1), den

    @cached_property
    def nu_op(self):
        """<E, .> as one operator to the field coordinates."""
        (num, den), dd = self.energy, len(self.pairs)
        w = np.array(self.weight, dtype=num.dtype)
        return self._reduce(
            (self._mul_table(num.reshape(dd, self.m)) * w[:, None, None]).reshape(dd * self.m, self.m), den)

    @cached_property
    def cond_op(self):
        """nu(ws) for every s from P(w): <E, Psi_s(P)> in one operator."""
        num, den = self.psi
        return self._reduce(
            np.concatenate([num[s] @ self.nu_op[0] for s in range(self.n)], axis=1),
            den * self.nu_op[1])

    # -- stacks ---------------------------------------------------------------

    def apply(self, x, op):
        return self._reduce(x[0] @ op[0], x[1] * op[1])

    def children(self, table):
        """Psi_s on every row: row i * n + s of the result is Psi_s(row i)."""
        (num, den), (op, dop) = table, self.psi
        out = num @ op.transpose(1, 0, 2).reshape(op.shape[1], -1)
        return self._reduce(out.reshape(len(num) * self.n, -1), den * dop)

    def parents(self, table):
        """Psi*_s on every row: row s * rows + i of the result is Psi*_s(row i)."""
        num, den = table
        dd = len(self.pairs)
        out, den = self.matmul((num.reshape(len(num), dd, self.m), den), self.psi_star_entries)
        return out.reshape(len(num), self.n, dd * self.m).transpose(1, 0, 2).reshape(-1, dd * self.m), den

    def betas(self, k: int) -> list:
        """The beta-weights Psi*_w(E) = A(w)^T E A(w) of every word length 0 .. k.

        Entry j stacks the words of length j in word-index order, since
        Psi*_s(Psi*_w(E)) = Psi*_(sw)(E) is row s * n^(j-1) + index(w) of ``parents``.
        """
        out = [self.energy]
        for _ in range(k):
            out.append(self.parents(out[-1]))
        return out

    def congruence(self, forms, ops):
        """sum_s R_s^T B R_s for every symmetric form B of a stack (K, D, D, m), as (K, c, c, m) over a den.

        ``ops`` = [R_1 ... R_n] is (D, n*c, m) over a den in the layout of
        ``psi_star_entries``, R_s its columns s*c .. s*c + c - 1.  For each
        coordinate j of B and k of R, X = B_j [R_1 ... R_n]_k is one integer
        product, and one more over the (p, s) axis pairs it with each
        coordinate i of R (:meth:`_symmetric_sum`); a field of one coordinate
        takes its two products directly.
        """
        (b, bden), (op, oden), dd = forms, ops, len(self.pairs)
        c = op.shape[1] // self.n
        rows = op.reshape(dd * self.n, c, self.m)
        if self.m == 1:
            x = (b[..., 0] @ op[..., 0]).reshape(len(b), dd * self.n, c)
            return self._reduce((rows[..., 0].T @ x)[..., None], bden * oden * oden)
        out = np.zeros((len(b), c, c, self.m), dtype=b.dtype)
        for j in _support(b):
            self._symmetric_sum(out, rows, lambda k: (b[..., j] @ op[..., k]).reshape(len(b), dd * self.n, c), j)
        return self._reduce(out, bden * oden * oden)

    def _symmetric_sum(self, out, rows, right, j=0):
        """Add e_i e_j e_k rows_i^T right(k) at coordinate i ^ j ^ k of ``out`` for the coordinates i, k of ``rows`` (N, c, m).

        right(k) is an integer stack (..., N, c) whose term (k, i) is the
        transpose of term (i, k), as for a Gram matrix or a congruence of a
        symmetric form: each unordered pair is formed once.
        """
        coords = _support(rows) if self.m > 1 else [0]
        for a, k in enumerate(coords):
            x = right(k)
            for i in coords[:a + 1]:
                t = rows[..., i].T @ x
                if i != k:
                    t = t + t.swapaxes(-1, -2)
                coef = self.common[j & k] * self.common[(j ^ k) & i]
                out[..., i ^ j ^ k] += t if coef == 1 else coef * t
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

    @staticmethod
    def steps_per_block(pairs: int) -> int:
        """How many stacks of this many pairs one gap block holds, at least one."""
        return max(1, _GAP_BLOCK // pairs)

    def max_gaps(self, x, ys, prod):
        """max |<x_a, y_b> - prod_ab| over all pairs, for each stack y of ``ys``, as scalars of the backend.

        All stacks are paired with x in one bilinear product, run in blocks
        of rows of x so that no more than about ``_GAP_BLOCK`` pairs are held
        at once; one tournament over the pairs of every stack finds the maxima.
        """
        rows = len(ys)
        yn, yd = self.join(ys)
        block = max(1, _GAP_BLOCK // len(yn))
        best = []
        for lo in range(0, len(x[0]), block):
            num, den = self.pair((x[0][lo:lo + block], x[1]), (yn, yd))
            num, den = self.sub((num.reshape(len(num), rows, -1, self.m), den),
                                (prod[0][lo:lo + block, None], prod[1]))
            best.append((self.max_abs(num.transpose(1, 0, 2, 3).reshape(rows, -1, self.m))[None], den))
        num, den = self.join(best)
        return self.unpack(self.max_abs(num.transpose(1, 0, 2)), den)

    def norm_parts(self, c):
        """The operator norm of every packed symmetric matrix of a stack (..., D*m), d <= 2, as (x + sqrt(y)) / den.

        Returns x, y >= 0 as field elements (..., m) and den.  For d = 2
        the eigenvalues are (tr +- sqrt((c11 - c22)^2 + 4 c12^2)) / 2, so
        x = |tr| and y = (c11 - c22)^2 + 4 c12^2 on the numerators, over
        2 den; for d = 1, x = |c| and y = 0.
        """
        num, den = c
        e = num.reshape(num.shape[:-1] + (len(self.pairs), self.m))
        if self.dim == 1:
            x, y = e[..., 0, :], np.zeros_like(e[..., 0, :])
        else:
            diff = e[..., 0, :] - e[..., 2, :]
            x, y = e[..., 0, :] + e[..., 2, :], self.mul(diff, diff) + 4 * self.mul(e[..., 1, :], e[..., 1, :])
            den = 2 * den
        return np.where((self.sign(x) < 0)[..., None], -x, x), y, den

    def norm_winners(self, x, y, nus):
        """The first largest norm and the first largest norm over nu of every stack, d <= 2.

        x, y (rows, N, m) are the :meth:`norm_parts` of N matrices per row,
        nus (N, m) their masses, all > 0.  Returns two index arrays (rows,).
        Norms meet by :meth:`surd_sign` on the numerators, and the ratios
        cross-multiplied: (x_b + sqrt(y_b)) nu_a against (x_a + sqrt(y_a)) nu_b.
        """
        shape = x.shape[:-1] + (1,)
        idx = np.broadcast_to(np.arange(shape[-2])[:, None], shape)
        norm = self.tournament([idx, x, y], lambda b, a: self.surd_sign(b[1] - a[1], b[2], a[2]) > 0)[0]
        nu = np.broadcast_to(nus, x.shape)
        nu2 = np.broadcast_to(self.mul(nus, nus), x.shape)

        def beats(b, a):
            u = self.mul(a[3], b[1]) - self.mul(b[3], a[1])
            return self.surd_sign(u, self.mul(a[4], b[2]), self.mul(b[4], a[2])) > 0

        ratio = self.tournament([idx, x, y, nu, nu2], beats)[0]
        return norm[..., 0], ratio[..., 0]

    def pair(self, x, y):
        """<x_a, y_b> for every pair of rows, as field elements (a, b, m)."""
        (xn, xd), (yn, yd) = x, y
        xs = xn.reshape(len(xn), -1, self.m) * np.array(self.weight, dtype=xn.dtype)[:, None]
        ys = yn.reshape(len(yn), -1, self.m)
        out = np.zeros((len(xn), len(yn), self.m), dtype=xn.dtype)
        return self._products(out, lambda i, j: xs[:, :, i] @ ys[:, :, j].T, xs, ys), xd * yd

    def gram(self, t):
        """sum_a t[a, i] t[a, j] for field elements t (a, b, m), as (b, b, m).

        One matrix product over the row axis per unordered pair of
        coordinates (:meth:`_symmetric_sum`), so no (a, b, b) intermediate is
        built.
        """
        num, den = t
        out = np.zeros((num.shape[1], num.shape[1], self.m), dtype=num.dtype)
        return self._symmetric_sum(out, num, lambda k: num[:, :, k]), den * den

    def pack(self, mat):
        """One symmetric matrix as a stack of one row."""
        num, den = self._pack_scalars([mat[i, j] for i, j in self.pairs])
        return num.reshape(1, -1), den

    def unpack_matrices(self, num, den, field) -> np.ndarray:
        """Packed rows back to symmetric matrices of the backend, as (rows, d, d)."""
        d = self.dim
        vals = np.array(self.unpack(num.reshape(-1, self.m), den), dtype=field.dtype)
        return vals.reshape(len(num), -1)[:, symmetric_index(d)].reshape(len(num), d, d)
