"""The cylinder measure of a matrix restriction system.

A validated system assigns mass nu(alpha) = Tr(A(alpha)* E A(alpha)) to the
cylinder named by a word alpha; the two fixed-point equations make this a
consistent shift-invariant probability measure.  This module evaluates nu and
its conditionals, the finite approximants of the backward transition density,
exact correlation gaps and their geometric bounds, the normalized prefix
states, the trace formula for iterated transfer operators on a stack of
packed weights at once, and a reproducible sequential sampler.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matsys, symbolic
from .exactnum import Radical
from .matsys import MatrixSystem
from .multiquad import MapField, map_field
from .quadform import _Quad
from .symbolic import BudgetError, CylinderFunction, Word

__all__ = [
    "SystemInvalidError",
    "KusuokaMeasure",
    "HState",
    "MixingRow",
    "kusuoka_measure",
    "nu",
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


class SystemInvalidError(ValueError):
    """A system failed validation; the report rides along."""

    def __init__(self, report: matsys.ValidationReport):
        super().__init__("system failed validation: " + "; ".join(report.lines()))
        self.report = report


@dataclass(frozen=True, eq=False)
class KusuokaMeasure:
    """Measure handle: a validated system, its kernel and evaluation caches.

    The caches are value-level memoization only; all public operations
    stay pure functions of (system, arguments).  The quadratic-form kernel
    ``_quad`` is the one :func:`kusuoka_measure` built and validated on;
    its derived members (theta1 included), the maps packed in their field
    and the level tables are built on first use, per measure.
    """

    system: MatrixSystem
    _quad: _Quad = field(repr=False, compare=False)
    _level_mats: dict = field(default_factory=dict, repr=False, compare=False)
    _level_p: dict = field(default_factory=dict, repr=False, compare=False)
    _level_mass: dict = field(default_factory=dict, repr=False, compare=False)
    _level_mass_array: dict = field(default_factory=dict, repr=False, compare=False)
    _level_beta: dict = field(default_factory=dict, repr=False, compare=False)
    _sampler_nodes: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def _maps(self) -> MapField:
        return map_field(self.system.maps, self.system.energy)

    def _word_table(self, k: int, budget: int = symbolic.DEFAULT_BUDGET):
        """Packed word matrices A(alpha) of every length-k word, (n^k, d, d, m) in ``_maps.fld``, cached per level."""
        symbolic.check_budget(self.system.n_symbols, k, budget)
        if k not in self._level_mats:
            if k == 0:
                num, den = self._maps.identity
                self._level_mats[k] = num[None], den
            else:
                self._level_mats[k] = symbolic.next_level(self._word_table(k - 1, budget), self._maps)
        return self._level_mats[k]

    def level_matrices(self, k: int, budget: int = symbolic.DEFAULT_BUDGET) -> np.ndarray:
        """Word matrices of every length-k word as one read-only (n^k, d, d) array of the backend.

        Unpacked on each call from the packed table of :meth:`_word_table`.
        """
        out = self._maps.fld.unpack_array(*self._word_table(k, budget))
        out.setflags(write=False)
        return out

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

    def level_g(self, k: int, budget: int = symbolic.DEFAULT_BUDGET) -> list:
        """g_k(w) = nu(w) / nu(w[1:]) over all length-k words in word-index order, k >= 1.

        One packed division by the level-(k-1) masses tiled n times: w[1:] of word i is word i mod n^(k-1).
        """
        if k < 1:
            raise ValueError("the density approximant needs a nonempty prefix")
        q = self._quad
        num, den = q.nu(self._level_table(k, budget))
        shorter, shorter_den = q.nu(self._level_table(k - 1, budget))
        return q.unpack(*q.divide((num, den), (np.tile(shorter, (self.system.n_symbols, 1)), shorter_den)))

    def _nu_array(self, k: int, budget: int = symbolic.DEFAULT_BUDGET) -> np.ndarray:
        """``level_nu(k)`` as one read-only array of the backend, cached."""
        masses = self.level_nu(k, budget)
        if k not in self._level_mass_array:
            arr = np.array(masses, dtype=self.system.field.dtype)
            arr.setflags(write=False)
            self._level_mass_array[k] = arr
        return self._level_mass_array[k]

    def _beta_table(self, k: int, budget: int = symbolic.DEFAULT_BUDGET):
        """beta-weights A(w)^T E A(w) of every length-k word as packed rows (n^k, D*m) of the kernel, cached."""
        if k not in self._level_beta:
            symbolic.check_budget(self.system.n_symbols, k, budget)
            self._level_beta[k] = self._quad.betas(k)[-1]
        return self._level_beta[k]


def kusuoka_measure(system: MatrixSystem, check: bool = True) -> KusuokaMeasure:
    """The measure of ``system``, validated unless ``check`` is False.

    The quadratic-form kernel is built once, here: validation decides on it
    (as :func:`~kusuoka.matsys.validate` does) and the measure keeps it, so
    no call builds its kernel twice, every call validates, and nothing is
    cached across calls.  Raises :class:`SystemInvalidError` with the report
    when validation fails.
    """
    q = _Quad(system)
    if check:
        report = matsys._validate_kernel(system, q)
        if not report.ok:
            raise SystemInvalidError(report)
    return KusuokaMeasure(system, q)


def _prefix(m: KusuokaMeasure, word: Word):
    """P(word) = A(word) A(word)^T packed: Psi_s in word order from I."""
    p = m._quad.ident
    for s in symbolic._checked(tuple(word), m.system.n_symbols):
        p = m._quad.child(p, s)
    return p


def _beta(m: KusuokaMeasure, word: Word):
    """The beta-weight Psi*_word(E) = A(word)^T E A(word) packed: Psi*_s in reverse word order from E."""
    w = m._quad.energy
    for s in reversed(symbolic._checked(tuple(word), m.system.n_symbols)):
        num, den = m._quad.parents(w)
        w = m._quad._reduce(num[s:s + 1], den)
    return w


def nu(m: KusuokaMeasure, word: Word):
    """Mass of the cylinder named by ``word``."""
    return m._quad.unpack(*m._quad.nu(_prefix(m, word)))[0]


def conditional(m: KusuokaMeasure, word: Word, s: int):
    """nu(word + s) / nu(word)."""
    q = m._quad
    base = q.nu(_prefix(m, word))
    if not base[0].any():
        raise ValueError("conditioning on a zero-mass cylinder")
    return q.unpack(*q.divide(q.nu(_prefix(m, tuple(word) + (s,))), base))[0]


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
    q = m._quad
    return q.unpack(*q.divide(q.nu(_prefix(m, prefix)), q.nu(_prefix(m, prefix[1:]))))[0]


@dataclass(frozen=True)
class HState:
    """Normalized prefix state A(prefix)* E A(prefix) / nu(prefix).

    Positive semidefinite with unit trace; the value of the matrix
    martingale that conditions the measure on a deepening prefix.
    """

    prefix: Word
    h: np.ndarray


def _h_packed(m: KusuokaMeasure, prefix: Word):
    """The prefix state as one packed row: the beta-weight over its trace nu(prefix), one packed division."""
    q = m._quad
    num, den = _beta(m, prefix)
    mass, mass_den = q.pair(q.ident, (num, den))
    if not mass.any():
        raise ValueError("prefix has zero mass")
    num, den = q.divide((num.reshape(-1, q.m), den), (mass[0], mass_den))
    return num.reshape(1, -1), den


def h_state(m: KusuokaMeasure, prefix: Word) -> HState:
    return HState(tuple(prefix), m._quad.unpack_matrices(*_h_packed(m, prefix), m.system.field)[0])


def correlation_gap(m: KusuokaMeasure, alpha: Word, beta: Word, n: int):
    """nu(alpha intersect shift^-(n+|alpha|) beta) - nu(alpha) nu(beta), exactly.

    Evaluated through the trace formula: the middle sum over n free symbols
    collapses to n applications of the adjoint averaging map to the
    beta-weight A(beta)* E A(beta) (:func:`_correlation_gaps`).
    """
    if n < 0:
        raise ValueError("separation n must be >= 0")
    return _correlation_gaps(m, alpha, beta, n)[-1]


def _correlation_gaps(m: KusuokaMeasure, alpha: Word, beta: Word, nmax: int) -> list:
    """The correlation gaps at separations 0 ... nmax, in the system's scalars.

    P(alpha) = A(alpha) A(alpha)^T is paired with M*^n of the beta-weight A(beta)^T E A(beta),
    both packed in the kernel ``m._quad``, one M* step per separation; one pairing, one
    subtraction of nu(alpha) nu(beta) and one unpack take every separation at once.
    """
    q = m._quad
    p_alpha, weights = _prefix(m, alpha), [_beta(m, beta)]
    for _ in range(nmax):
        weights.append(q.apply(weights[-1], q.m_star_sum))
    (an, ad), (bn, bd) = q.nu(p_alpha), q.nu(_prefix(m, beta))
    num, den = q.sub(q.pair(p_alpha, q.join(weights)), (q.mul(an, bn), ad * bd))
    return q.unpack(num[0], den)


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
    weight, and ``pointwise_ok`` says that every such norm is at most
    dim * theta1^n * nu(alpha).  For d <= 2 both flags are exact
    certificates whenever theta1 is certified, and ``pointwise_max`` is
    exact unless its square root leaves the field of the system, when it
    is a float.  An uncertified theta1 makes the bounds floats.
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


def _pointwise_by_matrix(q: _Quad, centered, a_mass: list, scale) -> tuple:
    """(largest norm, every norm <= scale * nu) of one step from each centred matrix's own Schatten norm: d >= 3."""
    pw_max, pw_ok = None, True
    for c, mass in zip(q.unpack_matrices(*centered, q.system.field), a_mass):
        norm = matsys.schatten_norm(c, "inf")
        pw_ok = pw_ok and _le(norm, scale * mass, 1e-12)
        if pw_max is None or not _le(norm, pw_max):
            pw_max = norm
    return pw_max, pw_ok


def _pointwise_by_surds(q: _Quad, cs: list, a_nu, a_mass: list, scales: list, certified: bool) -> list:
    """(largest norm, every norm <= scale * nu) of each step's centred matrices, d <= 2, with one square root a step.

    The norms x + sqrt(y) are compared in the kernel's field; only the two
    winners of a step are unpacked.  The largest norm is exact when sqrt(y)
    is in the field, else the Schatten norm of that matrix.  The flag tests
    the largest norm over nu: x + sqrt(y) <= t = scale * nu iff t - x >= 0
    and (t - x)^2 >= y, so no square root is taken.
    """
    fld = q.system.field
    num, den = q.join(cs)
    x, y, den = q.norm_parts((num.reshape(len(cs), len(a_mass), -1), den))
    by_norm, by_ratio = q.norm_winners(x, y, a_nu[0])

    def parts(r, i):
        return q.unpack(x[r, i][None], den)[0], q.unpack(y[r, i][None], den * den)[0]

    out = []
    for r, (i, j, scale) in enumerate(zip(by_norm, by_ratio, scales)):
        nx, ny = parts(r, i)
        root = fld.sqrt(ny)
        pw_max = (nx + root if root is not None
                  else matsys.schatten_norm(q.unpack_matrices(cs[r][0][i:i + 1], cs[r][1], fld)[0], "inf"))
        rx, ry = parts(r, j)
        if certified:
            t = scale * a_mass[j] - rx
            pw_ok = t.sign() >= 0 and (t * t - ry).sign() >= 0
        else:
            pw_ok = float(rx) + math.sqrt(float(ry)) <= scale * a_mass[j] + 1e-12
        out.append((pw_max, pw_ok))
    return out


def mixing_bound_check(
    m: KusuokaMeasure, k: int, n_max: int, budget: int = symbolic.DEFAULT_BUDGET
) -> list[MixingRow]:
    """Tabulate worst-case correlation gaps against 2 * theta1^n.

    The gaps run on the packed quadratic forms: the beta weights
    A(beta)^T E A(beta) advance by M* and the centred cylinder weights
    P(alpha) - nu(alpha) I by M, one operator product per step; the steps
    are then taken together, as many as one gap block holds, so one
    bilinear product pairs every step's weights with every P(alpha) and
    one tournament finds every step's largest gap.  On the exact backend
    every comparison is an integer sign test in the field of the kernel.

    For d <= 2 the operator norm of a centred C is x + sqrt(y) with x, y in
    that field (:meth:`_Quad.norm_parts`).  Tournaments that compare such
    surds without a square root find each step's largest norm and largest
    norm over nu(alpha), and ``pointwise_ok`` ends with one squared-out
    test of the second against dim * theta1^n, so it is an exact
    certificate even when theta1 lies outside the field.  Floats are left
    only in a printed ``pointwise_max`` whose square root leaves the field
    (the Schatten norm of that one matrix) and in an uncertified theta1:
    the bound columns are then floats and both flags float comparisons,
    with a 1e-12 slack for the pointwise one, while the maxima stay exact.
    For d >= 3 every centred matrix's Schatten norm is compared on its
    own, as a float when its characteristic polynomial does not split.
    """
    if k < 0 or n_max < 0:
        raise ValueError("depth and separation must be >= 0")
    sys_, q = m.system, m._quad
    t1 = q.theta1
    certified = t1.exact is not None
    lift, t1_scalar = (sys_.field.lift, t1.exact) if certified else (float, t1.value)

    pa = m._level_table(k, budget)
    a_mass = [lift(x) for x in m.level_nu(k, budget)]
    max_mass = max(a_mass)
    a_nu = q.nu(pa)
    # beta weights Psi*_beta(E) at every depth j <= k, flattened in depth order
    weights = q.join(q.betas(k))
    b_nu = q.join([q.nu(m._level_table(j, budget)) for j in range(k + 1)])
    prod = q.mul(a_nu[0][:, None, :], b_nu[0][None, :, :]), a_nu[1] * b_nu[1]
    centered = q.sub(pa, q.scaled_ident(a_nu))

    two, dim = lift(2), lift(sys_.dim)
    rows = []
    t1_pow = lift(1)
    per_block = q.steps_per_block(len(pa[0]) * len(weights[0]))
    for lo in range(0, n_max + 1, per_block):
        steps = range(lo, min(lo + per_block, n_max + 1))
        ws, cs, powers = [], [], []
        for n in steps:
            if n > 0:
                weights = q.apply(weights, q.m_star_sum)
                centered = q.apply(centered, q.m_sum)
                t1_pow = t1_pow * t1_scalar
            ws.append(weights)
            cs.append(centered)
            powers.append(t1_pow)
        scales = [dim * p for p in powers]
        pointwise = (_pointwise_by_surds(q, cs, a_nu, a_mass, scales, certified) if q.dim <= 2
                     else [_pointwise_by_matrix(q, c, a_mass, scale) for c, scale in zip(cs, scales)])
        for n, gap, p, scale, (pw_max, pw_ok) in zip(steps, q.max_gaps(pa, ws, prod), powers, scales, pointwise):
            gap_bound = two * p
            rows.append(MixingRow(n, gap, gap_bound, _le(gap, gap_bound), pw_max, scale * max_mass, pw_ok))
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
    (the prefix state stands in for the exact conditioning).  It is the
    one-row call of :func:`_transfer_values`, on the packed prefix state.
    """
    if mshift < 0:
        raise ValueError("mshift must be >= 0")
    if f.n_symbols != m.system.n_symbols:
        raise ValueError("cylinder function and system disagree on the alphabet")
    fld, fv = m._quad.pack_holding(f.values)
    return fld.unpack_array(*_transfer_values(m, _h_packed(m, prefix), mshift, fld, fv, f.depth, budget))[0]


def _transfer_values(m: KusuokaMeasure, weights, mshift: int, fld, fv, depth: int, budget: int):
    """sum_alpha f(alpha) <M*^mshift(w), P(alpha)> for every packed weight row w of the kernel, as a stack (rows, m) of ``fld``.

    The trace formula: M^mshift moves onto the weights by the adjoint
    identity, and one bilinear product pairs them with the cached P(alpha)
    of f's level; ``fv`` is f's values packed in ``fld``, which holds the
    kernel.  The beta-weight of a word w gives nu(w) times the image on w.
    """
    q = m._quad
    for _ in range(mshift):
        weights = q.apply(weights, q.m_star_sum)
    num, den = fld._convert(q, *q.pair(weights, m._level_table(depth, budget)))
    return fld._reduce(fld.mul(num, fv[0]).sum(axis=1), den * fv[1])


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
