"""Contraction and irreducibility constants of the averaging operator.

The map M(B) = sum_s A_s B A_s* fixes the identity; its restriction to the
complement of the identity (trace-free symmetric plus antisymmetric parts under
the energy inner product) has spectral radius theta1 < 1 for irreducible
systems.  This module computes theta1 with exact certification where the
characteristic polynomial permits, the Schatten contraction factors
theta1_p, the irreducibility constants c_k as smallest eigenvalues of a pair
of explicit Gram forms, the derived decay rate theta2 in both published
variants, and the renormalization that turns raw restriction matrices into a
system satisfying both fixed-point equations.  All of them read M, M* and
the trace-free basis off one packed kernel of :mod:`kusuoka.quadform`, so
they hold for any invariant weight E; ``spectral_report`` runs them all on
one kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, matsys, quadform, symbolic
from .exactnum import Radical
from .linalg import EXACT
from .multiquad import Multiquad, _smallest_field, field_of, minor_signs, nullspace, solve
from .quadform import Theta1Result, _Quad

__all__ = [
    "Theta1Result",
    "CkResult",
    "Theta2Result",
    "SpectralReport",
    "theta1",
    "theta1_schatten",
    "c_k",
    "theta2",
    "spectral_report",
    "renormalize",
]


def theta1(system: matsys.MatrixSystem) -> Theta1Result:
    """Contraction rate of M on the orthogonal complement of the identity.

    The complement under <., .>_E splits into the trace-free symmetric and
    the antisymmetric matrices, and M keeps both; each part's radius is
    certified when its characteristic polynomial splits (``_Quad.theta1``).
    """
    if system.dim == 1:  # no direction off the identity: nothing to pack
        return quadform._theta1_of((system.field.zeros((0, 0)),) * 2)
    return _Quad(system).theta1


def _scalar_action(rep: np.ndarray):
    """The c with rep = c*I, or None."""
    n, c = rep.shape[0], rep[0, 0]
    field = linalg.array_field(rep)
    if field.exact:
        return c if (rep == c * field.identity(n)).all() else None
    dev = float(np.max(np.abs(rep - float(c) * np.eye(n))))
    return float(c) if dev <= 1e-12 * max(1.0, abs(float(c))) else None


def theta1_schatten(system: matsys.MatrixSystem | _Quad, p, trials: int = 256, seed: int = 0):
    """Contraction factor of M on trace-free symmetric matrices in Schatten p-norm.

    When M acts as a scalar on the subspace (every gasket system does this)
    the factor is that scalar for every p and is returned exactly.  Otherwise
    the return value is a seeded random-probe maximum of ``|M(B)|_p / |B|_p``
    with local hill-climbing refinement: a lower bound on the true factor,
    not a certificate.  ``system`` may also be a kernel (``spectral_report``).
    """
    q = system if isinstance(system, _Quad) else _Quad(system)
    system = q.system
    if not system.symmetric:
        raise ValueError("Schatten contraction factors are defined for symmetric restriction maps")
    if isinstance(p, (int, float)) and p < 1:
        raise ValueError("p must be >= 1 or 'inf'")
    rep = q.theta1_reps[0]
    if rep.shape[0] == 0:
        return system.field.zero
    c = _scalar_action(rep)
    if c is not None:
        return abs(c)

    fsys = matsys.to_float_system(system)
    basis = [linalg.to_float_matrix(f) for f in q.unpack_matrices(*q.trace_free, system.field)]
    m = len(basis)
    rng = np.random.Generator(np.random.Philox(seed))

    def ratio(x):
        b = sum(x[i] * basis[i] for i in range(m))
        den = matsys.schatten_norm(b, p)
        if den < 1e-12:
            return 0.0
        return matsys.schatten_norm(matsys.apply_M(fsys, b), p) / den

    best_x = rng.standard_normal(m)
    best = ratio(best_x)
    for _ in range(trials):
        x = rng.standard_normal(m)
        r = ratio(x)
        if r > best:
            best, best_x = r, x
    step = 0.5
    for _ in range(200):
        x = best_x + step * rng.standard_normal(m)
        r = ratio(x)
        if r > best:
            best, best_x = r, x
        else:
            step *= 0.97
    return best


@dataclass(frozen=True)
class CkResult:
    """Smallest eigenvalue of the level-k irreducibility Gram form.

    ``applicable`` is False when the trace-free symmetric subspace is empty
    (one-dimensional systems), in which case no value is reported.
    """

    k: int
    applicable: bool
    value: float | None
    exact: Radical | None


class _Forms(NamedTuple):
    """The forms of ``c_k`` packed in the kernel field ``fld``: [H | G'_k for k in ``levels``].

    ``num`` (r, (K + 1) r, m) over ``den`` puts H and each G'_k side by side,
    r = D - 1 the trace-free dimension.
    """

    fld: Multiquad
    levels: tuple
    num: np.ndarray
    den: object

    def unpack(self):
        """(H, {k: G'_k}) as matrices of the backend."""
        forms, r = self.fld.unpack_array(self.num, self.den), len(self.num)
        return forms[:, :r], {k: forms[:, (i + 1) * r:(i + 2) * r] for i, k in enumerate(self.levels)}


def _grams(system: matsys.MatrixSystem, levels, budget: int, q: _Quad | None = None) -> _Forms | None:
    """The forms of ``c_k`` for every k in ``levels``, packed side by side over one denominator.

    Both are Gram matrices over the kernel's trace-free basis f_q: H_ij =
    <f_i, f_j>_E (``_Quad.trace_free_gram``) and G'_ij = sum_{|alpha|=k}
    t_i(alpha) t_j(alpha).  None when d = 1.  The budget is checked before
    the kernel is built (or the caller's kernel ``q`` of ``system`` is used).

    No level past the first enumerates its words.  With b(w) the packed row
    of Psi*_w(E) and S_s the packed Psi*_s, b(sw) = b(w) S_s, so the second
    moment B_j = sum_{|w|=j} b(w)^T b(w) obeys B_(j+1) = sum_s S_s^T B_j S_s,
    and G'_(j+1) = sum_s P_s^T B_j P_s with P_s = S_s W F, W the packed
    weights and F the basis as columns.  Level 1 pairs its n rows b(s) with
    the basis and sums them (``_Quad.pair``, ``_Quad.gram``), and B_1 is
    their Gram matrix; each further B_j is one ``_Quad.congruence`` by the
    S_s, P is one field product of the rows of S with W F, and one
    congruence by the P_s of the stacked B_(k-1) gives every G'_k, k >= 2.
    """
    if system.dim == 1:
        return None
    levels = tuple(sorted(levels))
    symbolic.check_budget(system.n_symbols, levels[-1], budget)
    q = q or _Quad(system)
    rows = q.parents(q.energy)
    forms = [q.trace_free_gram]
    if levels[0] == 1:
        forms.append(q.gram(q.pair(rows, q.trace_free)))
    if levels[-1] > 1:
        (snum, sden), (fnum, fden), dd = q.psi_star_entries, q.trace_free, len(q.pairs)
        wf = fnum.reshape(len(fnum), dd, q.m) * np.array(q.weight, dtype=fnum.dtype)[:, None]  # W F, one f_i a row
        pnum, pden = q.matmul((snum.reshape(dd * q.n, dd, q.m), sden), (wf.transpose(1, 0, 2), fden))
        pushed = pnum.reshape(dd, -1, q.m), pden  # [P_1 ... P_n]: row p * n + s of S times W F
        num, den = q.gram((rows[0].reshape(q.n, dd, q.m), rows[1]))
        moment = num[None], den  # B_1
        moments = [moment] if 2 in levels else []
        for j in range(2, levels[-1]):
            moment = q.congruence(moment, q.psi_star_entries)  # B_j
            if j + 1 in levels:
                moments.append(moment)
        num, den = q.congruence(q.join(moments) if len(moments) > 1 else moments[0], pushed)
        forms += [(g, den) for g in num]
    den = math.lcm(*(d for _, d in forms))
    return _Forms(q, levels, np.concatenate([num if d == den else num * (den // d) for num, d in forms], axis=1), den)


def _smallest_eigenvalues(forms: _Forms) -> dict:
    """c_k for every level of ``forms``: the least root of det(G'_k - lambda H), the least eigenvalue of H^-1 G'_k.

    Exact forms move to the smallest field their coordinates use (Q for
    every gasket).  For r = 2 (d = 2) every level takes the closed form of
    the pencil det(G'_k - lambda H) (``linalg.pencil_spectra``), and only
    its trace, determinant and discriminant are unpacked.  Larger r go
    through one elimination of [H | G'_1 | ... | G'_K], and each r x r
    solution is unpacked for its exact eigenvalues.  A level whose
    polynomial does not split, and the float backend, take L^-1 G' L^-T with
    H = L L^T instead: it is symmetric with the same eigenvalues.
    """
    fld, r = forms.fld, len(forms.num)
    out = {}
    if fld.exact:
        small = field_of(frozenset(fld.used(forms.num)), True)
        num = small._convert(fld, forms.num, forms.den)[0]
        if r == 2:  # a real pair comes larger root first: c_k = (tr - sqrt(disc)) / 2
            grams = np.stack([num[:, i * r:(i + 1) * r] for i in range(1, len(forms.levels) + 1)])
            lows = [reals[-1] if reals else None for reals, _, _ in
                    linalg.pencil_spectra(small, grams, np.broadcast_to(num[:, :r], grams.shape))]
        else:
            _, det, (x, den) = small.eliminate(num[None])
            if not det.any():
                raise ValueError("singular system in exact solve")
            eigs = [linalg.exact_eigenvalues_symmetric(small.unpack_array(x[0, :, i * r:(i + 1) * r], den))
                    for i in range(1, len(forms.levels) + 1)]
            lows = [min(ks) if ks is not None else None for ks in eigs]
        for k, low in zip(forms.levels, lows):
            if low is not None:
                out[k] = CkResult(k, True, float(low), low)
    rest = [k for k in forms.levels if k not in out]
    if rest:
        h, grams = forms.unpack()
        low = np.linalg.cholesky(linalg.to_float_matrix(h))
        for k in rest:
            half = np.linalg.solve(low, linalg.to_float_matrix(grams[k]))
            out[k] = CkResult(k, True, float(np.linalg.eigvalsh(np.linalg.solve(low, half.T))[0]), None)
    return {k: out[k] for k in forms.levels}


def c_k(system: matsys.MatrixSystem, k: int, budget: int = symbolic.DEFAULT_BUDGET) -> CkResult:
    """Minimum of sum_{|alpha|=k} <A(alpha)F, A(alpha)>^2 over trace-free symmetric F with |F|_E = 1.

    With F = sum_q y_q f_q over the kernel's trace-free basis f_q,
    whose entries lie in the field of E, the sum is y^T G' y with
    G'_ij = sum_alpha t_i(alpha) t_j(alpha), t_i(alpha) = Tr(Psi*_alpha(E) f_i),
    and the constraint is y^T H y = 1 with H_ij = <f_i, f_j>_E.  So c_k is the
    least eigenvalue of H^-1 G', which is similar to a symmetric matrix.
    G' is the congruence of the second moment sum_alpha b(alpha)^T
    b(alpha) of the packed beta-weights b(alpha) = Psi*_alpha(E) = A(alpha)^T
    E A(alpha), and that moment follows one congruence by the packed Psi*_s
    per level (:func:`_grams`): no word of length k >= 2 is enumerated.  No
    square root and no iterative optimization is involved.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    forms = _grams(system, (k,), budget)
    if forms is None:
        return CkResult(k, False, None, None)
    return _smallest_eigenvalues(forms)[k]


@dataclass(frozen=True)
class Theta2Result:
    """Both published decay rates: inf_k (1 - c_k)^(1/k) and sqrt(1 - c_1)."""

    applicable: bool
    irreducibility_ok: bool
    lemma_value: float | None
    lemma_exact: Radical | None
    thm_value: float | None
    thm_exact: Radical | None
    c_values: dict


def theta2(system: matsys.MatrixSystem, k_max: int, budget: int = symbolic.DEFAULT_BUDGET) -> Theta2Result:
    """Both decay rates from c_1 ... c_k_max, every level's form from one second-moment recursion."""
    return _theta2(system, k_max, budget)


def _theta2(system: matsys.MatrixSystem, k_max: int, budget: int, q: _Quad | None = None) -> Theta2Result:
    """:func:`theta2`, on the caller's kernel ``q`` of ``system`` when given."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    forms = _grams(system, range(1, k_max + 1), budget, q)
    if forms is None:
        cs = {k: CkResult(k, False, None, None) for k in range(1, k_max + 1)}
        return Theta2Result(False, True, None, None, None, None, cs)
    cs = _smallest_eigenvalues(forms)

    irreducibility_ok = all(r.value is not None and r.value > 0 for r in cs.values())

    c1 = cs[1]
    if c1.exact is not None:
        rem = Radical(1) - c1.exact
        lemma_exact = system.field.sqrt(rem)
        lemma_value = float(lemma_exact) if lemma_exact is not None else float(rem) ** 0.5
    else:
        lemma_exact = None
        lemma_value = (1.0 - c1.value) ** 0.5

    # candidates (1 - c_k)^{1/k}, ranked by float; exact closed forms exist for k <= 2 only
    fvals = {k: (1.0 - r.value) ** (1.0 / k) for k, r in cs.items()}
    k_best = min(fvals, key=fvals.get)
    thm_exact, c_best = None, cs[k_best].exact
    if c_best is not None and k_best <= 2:
        rem = Radical(1) - c_best
        thm_exact = rem if k_best == 1 else system.field.sqrt(rem)
    return Theta2Result(True, irreducibility_ok, lemma_value, lemma_exact, fvals[k_best], thm_exact, cs)


@dataclass(frozen=True)
class SpectralReport:
    """Bundle of every spectral constant the library produces for one system."""

    backend: str
    theta1: Theta1Result
    theta1_p: dict
    theta2: Theta2Result


def spectral_report(system: matsys.MatrixSystem | _Quad, k_max: int = 2,
                    budget: int = symbolic.DEFAULT_BUDGET, seed: int = 0) -> SpectralReport:
    """Compute theta1, the Schatten factors, c_k for k <= k_max, and theta2, all from one kernel.

    ``system`` is a system or its kernel (a measure's ``_quad``, as ``kusuoka
    report`` passes it).  A Schatten factor that M does not act on as a scalar
    is a maximum over 64 random probes drawn from ``seed``.
    """
    q = system if isinstance(system, _Quad) else _Quad(system)
    system = q.system
    t1 = q.theta1
    t1p = {str(p): theta1_schatten(q, p, 64, seed) for p in (1, 2, "inf")} if system.symmetric else {}
    t2 = _theta2(system, k_max, budget, q)
    return SpectralReport(system.backend, t1, t1p, t2)


# -- renormalization ---------------------------------------------------------


# Float decisions are relative to the scale they are made at, so t * A_s decides as A_s does for every t > 0.
SINGULAR_RTOL = 1e-10  # |det A| against max |a_ij|^d; a form's least eigenvalue against its largest
COMPLEX_RTOL = 1e-9  # |Im mu| against |mu|


def _perron_exact(rep_primal, rep_dual):
    """Perron eigenvalue, certified exactly, and the fixed vectors of both operators on packed coordinates.

    rep_primal = W^-1 rep_dual^T W, W the packed weights (``renormalize`` forms it so from the one
    ``quadform.averaging_matrix``), so the root is searched once, on the primal; each vector spans the
    kernel of its operator minus mu I, both from one elimination.
    """
    _, mu = linalg.certified_spectral_radius(rep_primal)
    if mu is None:
        raise ValueError(
            "Perron eigenvalue is not certifiable in the exact scalar field; use the float backend"
        )
    shifted = np.stack([rep_primal, rep_dual])
    for i in range(len(rep_primal)):
        shifted[:, i, i] -= mu
    vecs = []
    for null, dual in zip(nullspace(shifted), (False, True)):
        if len(null) != 1:
            raise ValueError("primal and dual Perron eigenvalues disagree" if dual and not null
                             else "Perron eigenspace is degenerate; the raw maps are reducible")
        vecs.append(null[0])
    return mu, vecs


def _basis_change(mats, lam, upper, upper_inv, e0):
    """lam U^-T A_s U^T for every map and U E0 U^T, symmetrized, over its trace, by stacked products in the smallest field holding them."""
    fld, (a, x, u, u_t, e, (lm, ld)) = _smallest_field(np.array(mats), upper_inv.T, upper, upper.T, e0,
                                                       np.array([lam]))
    maps, den = fld.matmul(fld.matmul(x, a), u_t)
    energy, e_den = fld.matmul(fld.matmul(u, e), u_t)
    energy = energy + energy.swapaxes(0, 1)  # symmetric to the last bit on the float backend
    tr = np.broadcast_to(np.trace(energy), (energy[..., 0].size, fld.m))
    energy = fld.unpack_array(*fld.divide((energy.reshape(tr.shape), e_den), (tr, e_den))).reshape(e0.shape)
    return list(fld.unpack_array(fld.mul(maps, lm[0]), den * ld)), energy


def renormalize(raw_maps, backend: str = EXACT, alphabet=None) -> matsys.MatrixSystem:
    """Build a system satisfying both fixed-point equations from raw restriction maps.

    Finds the Perron eigenvalue mu and fixed forms of B -> sum A_s* B A_s and
    its dual on packed symmetric coordinates, the dual being
    ``quadform.averaging_matrix`` and the first its weighted transpose;
    rescales the maps by mu^(-1/2), and changes basis so the dual
    fixed form becomes the identity; the primal form, pushed through the same
    basis change and normalized to unit trace, is the energy.  The backends
    differ only in the root (certified, or one ``eig``) and in the Cholesky
    factor.  Rescaled inputs t*A_s give the same output for every t > 0.

    The output validates exactly on the exact backend.  A float output is only
    as accurate as ``eig`` allows: on ill-conditioned raw maps (determinants
    small against the entries) its fixed-point residuals can reach 1e-7, so
    ``kusuoka validate`` rejects it at its 1e-12 tolerance although the exact
    backend gives a valid system.

    Exact-backend restriction: the basis change needs a Cholesky factor of the
    dual fixed form inside the radical scalar field.  Every gasket family
    member satisfies this (the form is a rational multiple of the identity);
    for raw maps where it fails, a ValueError points at the float backend.
    """
    field = linalg.FIELDS[backend]
    mats = [field.array(m) for m in raw_maps]
    if not mats:
        raise ValueError("need at least one raw map")
    d = mats[0].shape[0]
    for a in mats:
        if a.shape != (d, d):
            raise ValueError("raw maps must share one square shape")
    # B -> sum_s A_s B A_s* on packed columns, and its adjoint B -> sum_s A_s* B A_s: W^-1 rep_dual^T W
    rep_dual = quadform.averaging_matrix(mats)
    w = np.array([1 if i == j else 2 for i, j in quadform.packed_pairs(d)])
    rep_primal = (rep_dual * w[:, None] / w[None, :]).T

    if field.exact:
        if not minor_signs(mats)[1].all():
            raise ValueError("raw maps must be injective")
        mu, vecs = _perron_exact(rep_primal, rep_dual)
    else:
        stack = np.array(mats)
        if (abs(np.linalg.det(stack)) <= SINGULAR_RTOL * abs(stack).max(axis=(1, 2)) ** d).any():
            raise ValueError("raw maps must be injective")
        # one eig of both operators; they share their root, so mu is read off the primal and the
        # dual's vector is the one at its eigenvalue nearest mu: no two roots are compared
        vals, vecs = np.linalg.eig(np.stack([rep_primal, rep_dual]))
        lead = np.abs(vals[0]).argmax()
        if abs(vals[0, lead].imag) > COMPLEX_RTOL * abs(vals[0, lead]):
            raise ValueError("leading eigenvalue is not real; raw maps admit no Perron form")
        mu = float(vals[0, lead].real)
        vecs = [vecs[0, :, lead].real, vecs[1, :, np.abs(vals[1] - mu).argmin()].real]
    forms = [v[list(quadform.symmetric_index(d))].reshape(d, d) for v in vecs]
    e0, r0 = forms = [-1 * f if np.trace(f) < 0 else f for f in forms]
    if field.exact:
        positive = (minor_signs(forms)[0] > 0).all()
    else:
        w = np.linalg.eigvalsh(np.array(forms))
        positive = (w[:, 0] > SINGULAR_RTOL * w[:, -1]).all()
    if not positive:
        raise ValueError("Perron eigenvector is not positive definite; system is degenerate")
    lam = field.sqrt(1 / mu) if field.exact else mu ** -0.5  # float: pow rounds once, sqrt(1 / mu) twice
    if lam is None:
        raise ValueError(
            "scaling factor mu^(-1/2) leaves the exact scalar field; use the float backend"
        )
    if field.exact:  # r0 = U^T U
        upper = linalg.cholesky_exact(r0)
        upper_inv = solve(upper, field.identity(d))
    else:
        upper = np.linalg.cholesky(r0).T
        upper_inv = np.linalg.inv(upper)
    new_maps, energy = _basis_change(mats, lam, upper, upper_inv, e0)

    if alphabet is None:
        alphabet = tuple(str(i) for i in range(len(new_maps)))
    return matsys.make_system(alphabet, new_maps, energy, backend)
