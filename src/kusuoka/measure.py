"""The cylinder measure of a matrix restriction system.

A validated system assigns mass nu(alpha) = Tr(A(alpha)* E A(alpha)) to the
cylinder named by a word alpha; the two fixed-point equations make this a
consistent shift-invariant probability measure.  This module evaluates nu and
its conditionals, the finite approximants of the backward transition density,
exact correlation gaps and their geometric bounds, the normalized prefix
states that drive the trace formula for iterated transfer operators, and a
reproducible sequential sampler.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import linalg, matsys, spectral, symbolic
from .exactnum import Radical
from .matsys import MatrixSystem
from .symbolic import BudgetError, CylinderFunction, Word

__all__ = [
    "SystemInvalidError",
    "KusuokaMeasure",
    "HState",
    "MixingRow",
    "kusuoka_measure",
    "nu",
    "level_masses",
    "conditional",
    "g_approx",
    "correlation_gap",
    "correlation_gap_brute",
    "mixing_bound_check",
    "h_state",
    "transfer_apply",
    "sample",
    "sample_many",
]

_SAMPLER_CACHE_CAP = 200_000
_GAP_BLOCK = 1 << 14  # alpha-beta pairs per block of the gap table


class SystemInvalidError(ValueError):
    """A system failed validation; the report rides along."""

    def __init__(self, report: matsys.ValidationReport):
        super().__init__("system failed validation: " + "; ".join(report.lines()))
        self.report = report


class _Quad:
    """The maps Psi_s(B) = A_s B A_s^T and the weight E of one system, as arrays.

    The measure layer needs the word matrices only through these quadratic
    forms: P(alpha s) = Psi_s(P(alpha)) with P(alpha) = A(alpha) A(alpha)^T,
    nu(alpha) = <E, P(alpha)>, and the adjoint Psi*_s(B) = A_s^T B A_s on the
    beta side.  This class owns the packed format and is the only code that
    knows it.

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
        pairs = list(zip(*np.triu_indices(d)))
        self.pairs = pairs
        self.weight = [1 if i == j else 2 for i, j in pairs]
        # Psi_s(E_q)[p] for the symmetric unit E_q = e_i e_j^T + e_j e_i^T (or e_i e_i^T)
        psi = [
            a[p, i] * a[r, j] + a[p, j] * a[r, i] if i != j else a[p, i] * a[r, i]
            for a in system.maps for p, r in pairs for i, j in pairs
        ]
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

    def mul(self, x, y):
        """Field product of two coordinate arrays (..., m'), m' <= m, elementwise."""
        k = x.shape[-1]
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=x.dtype)
        for i in range(k):
            for j in range(k):
                term = x[..., i] * y[..., j]
                out[..., i ^ j] += term if self.c[i][j] == 1 else self.c[i][j] * term
        return out

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
        for i in range(self.m):
            for j in range(self.m):
                term = xs[:, :, i] @ ys[:, :, j].T
                out[:, :, i ^ j] += term if self.c[i][j] == 1 else self.c[i][j] * term
        return out, xd * yd

    def pack(self, mat):
        """One symmetric matrix as a stack of one row."""
        num, den = self._pack_scalars([mat[i, j] for i, j in self.pairs])
        return num.reshape(1, -1), den

    def unpack(self, num, den) -> list:
        """Field elements (N, m) back to scalars of the backend."""
        if not self.exact:
            return [float(x) / den for x in num[:, 0]]
        return [
            Radical.from_terms({self.radicand[b]: Fraction(self.scale[b] * x[b], den)
                                for b in range(self.m)})
            for x in num
        ]

    def unpack_matrices(self, num, den, field) -> list:
        """Packed rows back to symmetric matrices of the backend."""
        vals = self.unpack(num.reshape(-1, self.m), den)
        out = []
        for r in range(len(num)):
            mat = field.zeros((self.dim, self.dim))
            for q, (i, j) in enumerate(self.pairs):
                mat[i, j] = mat[j, i] = vals[r * len(self.pairs) + q]
            out.append(mat)
        return out

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


@dataclass(frozen=True, eq=False)
class KusuokaMeasure:
    """Measure handle: a validated system plus evaluation caches.

    The caches are value-level memoization only; all public operations
    stay pure functions of (system, arguments).  The quadratic-form kernel
    and its level tables are built on first use, per measure.
    """

    system: MatrixSystem
    _level_mats: dict = field(default_factory=dict, repr=False, compare=False)
    _level_p: dict = field(default_factory=dict, repr=False, compare=False)
    _level_mass: dict = field(default_factory=dict, repr=False, compare=False)
    _sampler_nodes: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def _quad(self) -> _Quad:
        return _Quad(self.system)

    def level_matrices(self, k: int, budget: int = symbolic.DEFAULT_BUDGET) -> list:
        """Word matrices of every length-k word, cached per level."""
        symbolic.check_budget(self.system.n_symbols, k, budget)
        if k in self._level_mats:
            return self._level_mats[k]
        if k == 0:
            table = [linalg.identity(self.system.dim, self.system.backend)]
        else:
            table = symbolic.next_level(self.level_matrices(k - 1, budget), self.system.maps)
        self._level_mats[k] = table
        return table

    def _level_table(self, k: int, budget: int = symbolic.DEFAULT_BUDGET):
        """Packed P(alpha) = A(alpha) A(alpha)^T of every length-k word, cached per level."""
        symbolic.check_budget(self.system.n_symbols, k, budget)
        if k not in self._level_p:
            self._level_p[k] = (
                self._quad.ident if k == 0
                else self._quad.children(self._level_table(k - 1, budget))
            )
        return self._level_p[k]

    def level_nu(self, k: int, budget: int = symbolic.DEFAULT_BUDGET) -> list:
        """nu over all length-k words in word-index order, cached."""
        if k not in self._level_mass:
            self._level_mass[k] = self._quad.unpack(*self._quad.nu(self._level_table(k, budget)))
        return self._level_mass[k]


def kusuoka_measure(system: MatrixSystem, check: bool = True, tol: float = 1e-12) -> KusuokaMeasure:
    if check:
        report = matsys.validate(system, tol)
        if not report.ok:
            raise SystemInvalidError(report)
    return KusuokaMeasure(system)


def nu(m: KusuokaMeasure, word: Word):
    """Mass of the cylinder named by ``word``."""
    a = symbolic.word_matrix(m.system, word)
    return np.trace(a.T @ m.system.energy @ a)


def level_masses(m: KusuokaMeasure, k: int, budget: int = symbolic.DEFAULT_BUDGET) -> list:
    return list(m.level_nu(k, budget))


def conditional(m: KusuokaMeasure, word: Word, s: int):
    """nu(word + s) / nu(word)."""
    base = nu(m, word)
    if base == 0:
        raise ValueError("conditioning on a zero-mass cylinder")
    return nu(m, tuple(word) + (s,)) / base


def g_approx(m: KusuokaMeasure, prefix: Word):
    """Finite approximant of the backward transition density.

    For a length-n prefix this is nu(prefix) / nu(prefix without its first
    symbol): the n-th ratio whose almost-everywhere limit defines the
    one-step density.  No extrapolation is attempted; the limit function
    has a dense set of discontinuities, so callers get the raw ratio.
    """
    prefix = tuple(prefix)
    if len(prefix) < 1:
        raise ValueError("the density approximant needs a nonempty prefix")
    return nu(m, prefix) / nu(m, prefix[1:])


@dataclass(frozen=True)
class HState:
    """Normalized prefix state A(prefix)* E A(prefix) / nu(prefix).

    Positive semidefinite with unit trace; the value of the matrix
    martingale that conditions the measure on a deepening prefix.
    """

    prefix: Word
    h: np.ndarray


def h_state(m: KusuokaMeasure, prefix: Word) -> HState:
    prefix = tuple(prefix)
    a = symbolic.word_matrix(m.system, prefix)
    h = a.T @ m.system.energy @ a
    mass = np.trace(h)
    if mass == 0:
        raise ValueError("prefix has zero mass")
    return HState(prefix, m.system.field.div(h, mass))


def correlation_gap(m: KusuokaMeasure, alpha: Word, beta: Word, n: int):
    """nu(alpha intersect shift^-(n+|alpha|) beta) - nu(alpha) nu(beta), exactly.

    Evaluated through the trace formula: the middle sum over n free symbols
    collapses to n applications of the adjoint averaging map to the
    beta-weight A(beta)* E A(beta).
    """
    if n < 0:
        raise ValueError("separation n must be >= 0")
    sys_ = m.system
    b = symbolic.word_matrix(sys_, beta)
    x = b.T @ sys_.energy @ b
    for _ in range(n):
        x = matsys.apply_M_star(sys_, x)
    a = symbolic.word_matrix(sys_, alpha)
    joint = np.trace(a.T @ x @ a)
    return joint - nu(m, alpha) * nu(m, beta)


def correlation_gap_brute(
    m: KusuokaMeasure, alpha: Word, beta: Word, n: int, budget: int = symbolic.DEFAULT_BUDGET
):
    """Oracle for ``correlation_gap``: literal sum over the n middle symbols."""
    if n < 0:
        raise ValueError("separation n must be >= 0")
    sys_ = m.system
    symbolic.check_budget(sys_.n_symbols, n, budget)
    a = symbolic.word_matrix(sys_, alpha)
    b = symbolic.word_matrix(sys_, beta)
    e = sys_.energy
    total = sys_.field.zero
    for g in m.level_matrices(n, budget):
        w = b @ g @ a
        total = total + np.trace(w.T @ e @ w)
    return total - nu(m, alpha) * nu(m, beta)


@dataclass(frozen=True)
class MixingRow:
    """One separation step of the mixing table.

    ``max_gap`` is the largest |correlation gap| over cylinder pairs
    (alpha of the given depth, beta of depth <= that) at separation n,
    against the geometric bound 2 * theta1^n.  The pointwise columns
    certify sup-norm decay of the conditioned masses: ``pointwise_max``
    is the largest operator norm of M^n applied to the centered cylinder
    weight, per-alpha compared against dim * theta1^n * nu(alpha).
    """

    n: int
    max_gap: object
    gap_bound: object
    gap_ok: bool
    pointwise_max: object
    pointwise_bound: object
    pointwise_ok: bool


def _le(lhs, rhs, slack: float = 0.0) -> bool:
    if isinstance(lhs, Radical) and isinstance(rhs, Radical):
        return (rhs - lhs).sign() >= 0
    return float(lhs) <= float(rhs) + slack


def mixing_bound_check(
    m: KusuokaMeasure, k: int, n_max: int, budget: int = symbolic.DEFAULT_BUDGET
) -> list[MixingRow]:
    """Tabulate worst-case correlation gaps against 2 * theta1^n.

    The gaps run on the packed quadratic forms: the beta weights
    A(beta)^T E A(beta) advance by M* and each separation step pairs all of
    them with every P(alpha) in one bilinear product.  Exact on the exact
    backend: the gap maximum is found with the integer sign test of the
    field and compared with the bound by sign, so ``gap_ok`` is a
    certificate, not a float comparison.  The float fallback is left in one
    place, the pointwise operator-norm column: a norm that leaves the scalar
    field (the eigenvalues of a centred matrix need a square root outside
    it, or a characteristic polynomial of degree >= 3 does not split) is a
    float, compared with a 1e-12 slack.  An uncertified theta1 is a float
    too, which the exact bounds cannot take yet: that raises ``TypeError``.
    """
    if k < 0 or n_max < 0:
        raise ValueError("depth and separation must be >= 0")
    sys_ = m.system
    t1 = spectral.theta1(sys_)
    t1_scalar = t1.exact if t1.exact is not None else t1.value

    q = m._quad
    pa = m._level_table(k, budget)
    a_mass = m.level_nu(k, budget)
    max_mass = max(a_mass)
    a_nu = q.nu(pa)
    # beta weights Psi*_beta(E) at every depth j <= k, flattened in depth order
    depths = [q.energy]
    for _ in range(k):
        depths.append(q.parents(depths[-1]))
    weights = q.join(depths)
    b_nu = q.join([q.nu(m._level_table(j, budget)) for j in range(k + 1)])
    prod = q.mul(a_nu[0][:, None, :], b_nu[0][None, :, :]), a_nu[1] * b_nu[1]
    centered = q.sub(pa, q.scaled_ident(a_nu))

    two, dim = sys_.field.lift(2), sys_.field.lift(sys_.dim)
    rows = []
    t1_pow = sys_.field.one
    for n in range(n_max + 1):
        max_gap = q.max_gap(pa, weights, prod)
        gap_bound = two * t1_pow
        gap_ok = _le(max_gap, gap_bound)

        pw_max = None
        pw_ok = True
        scale = dim * t1_pow
        for c, mass in zip(q.unpack_matrices(*centered, sys_.field), a_mass):
            norm = matsys.schatten_norm(c, "inf")
            bound = scale * mass
            slack = 0.0 if (isinstance(norm, Radical) and isinstance(bound, Radical)) else 1e-12
            if not _le(norm, bound, slack):
                pw_ok = False
            if pw_max is None or not _le(norm, pw_max, 0.0):
                pw_max = norm
        rows.append(MixingRow(n, max_gap, gap_bound, gap_ok, pw_max, scale * max_mass, pw_ok))

        if n < n_max:
            weights = q.apply(weights, q.m_star_sum)
            centered = q.apply(centered, q.m_sum)
            t1_pow = t1_pow * t1_scalar
    return rows


def transfer_apply(
    m: KusuokaMeasure,
    f: CylinderFunction,
    mshift: int,
    prefix: Word,
    budget: int = symbolic.DEFAULT_BUDGET,
):
    """Iterated-transfer value sum_alpha Tr(H(prefix) M^mshift(A(alpha)A(alpha)*)) f(alpha).

    This is the trace expansion of the (mshift + depth)-fold transfer
    operator applied to f, evaluated at any point extending ``prefix``
    (the prefix state stands in for the exact conditioning).  The adjoint
    identity moves M^mshift onto the prefix state, so the per-word work
    is one pairing with the cached level table regardless of mshift.
    """
    if mshift < 0:
        raise ValueError("mshift must be >= 0")
    if f.n_symbols != m.system.n_symbols:
        raise ValueError("cylinder function and system disagree on the alphabet")
    q = m._quad
    h = q.pack(h_state(m, prefix).h)
    for _ in range(mshift):
        h = q.apply(h, q.m_star_sum)
    num, den = q.pair(h, m._level_table(f.depth, budget))
    total = m.system.field.zero
    for v, x in zip(f.values, q.unpack(num[0], den)):
        total = total + v * x
    return total


# -- sampling ----------------------------------------------------------------


def _sampler_node(m: KusuokaMeasure, word: Word, parent, s: int | None):
    """(cumulative floats, packed nu(word + s) for every s, packed P(word)) for a prefix.

    P(word) = A(word) A(word)^T is kept unnormalized, so the conditional of s
    is nu(word + s) / nu(word), the second read off the parent's node.
    """
    cached = m._sampler_nodes.get(word)
    if cached is not None:
        return cached
    q = m._quad
    if parent is None:
        p = q.ident
        num, den = q.nu(p)
        mass = num[0], den
    else:
        _, (num, den), pp = parent
        p = q.child(pp, s)
        mass = num[s], den
    masses = q.child_masses(p)
    acc = 0.0
    cum = []
    for c in q.quotient_floats(*masses, *mass):
        acc += c
        cum.append(acc)
    cum[-1] = 1.0  # guard against float roundoff at the top
    node = (cum, masses, p)
    if len(m._sampler_nodes) < _SAMPLER_CACHE_CAP:
        m._sampler_nodes[word] = node
    return node


def sample_many(
    m: KusuokaMeasure, length: int, count: int, seed: int, budget: int = symbolic.DEFAULT_BUDGET
) -> list[Word]:
    """Draw ``count`` independent words of the given length.

    Counter-based generator keyed by the seed alone, inverse CDF over the
    alphabet in order; conditionals are computed on the evaluation backend
    and converted to float only for the comparison with the uniform draw,
    so a seed pins the output across platforms.
    """
    if length < 0 or count < 0:
        raise ValueError("length and count must be >= 0")
    if count * max(length, 1) > budget:
        raise BudgetError(f"sampling {count} x {length} symbols exceeds budget {budget}")
    rng = np.random.Generator(np.random.Philox(seed))
    uniforms = rng.random((count, length))
    out = []
    for c in range(count):
        word: Word = ()
        node = _sampler_node(m, word, None, None)
        for i in range(length):
            s = bisect.bisect_right(node[0], float(uniforms[c, i]))
            s = min(s, m.system.n_symbols - 1)
            new_word = word + (s,)
            node = _sampler_node(m, new_word, node, s)
            word = new_word
        out.append(word)
    return out


def sample(m: KusuokaMeasure, length: int, seed: int, budget: int = symbolic.DEFAULT_BUDGET) -> Word:
    """One word of the given length, deterministic in the seed."""
    return sample_many(m, length, 1, seed, budget)[0]
