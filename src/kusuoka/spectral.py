"""Contraction and irreducibility constants of the averaging operator.

The map M(B) = sum_s A_s B A_s* fixes the identity; its restriction to the
complement of the identity (trace-free symmetric plus antisymmetric parts under
the energy inner product) has spectral radius theta1 < 1 for irreducible
systems.  This module computes theta1 with exact certification where the
characteristic polynomial permits, the Schatten contraction factors
theta1_p, the irreducibility constants c_k as smallest eigenvalues of an
explicit Gram form, the derived decay rate theta2 in both published variants,
and the renormalization that turns raw restriction matrices into a system
satisfying both fixed-point equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, matsys, symbolic
from .exactnum import Radical
from .linalg import EXACT
from .quadform import _Quad

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

TRACE_FREE_PARTS = ("traceless-symmetric", "antisymmetric")


def _real_spectrum(rep_float: np.ndarray) -> tuple[float, ...]:
    if rep_float.shape[0] == 0:
        return ()
    eigs = np.linalg.eigvals(rep_float)
    if np.max(np.abs(eigs.imag)) < 1e-9:
        return tuple(sorted(float(x) for x in eigs.real))
    return tuple(sorted(float(abs(z)) for z in eigs))


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
    part_spectrum: dict
    irreducible: bool

    def describe(self) -> str:
        from .exactnum import format_exact

        if self.exact is not None:
            return f"{format_exact(self.exact)} (exact)"
        return f"{self.value !r} (float)"


def theta1(system: matsys.MatrixSystem) -> Theta1Result:
    """Contraction rate of M on the orthogonal complement of the identity."""
    radius: dict = {}
    exact: dict = {}
    spectrum: dict = {}
    for part in TRACE_FREE_PARTS:
        rep, _ = matsys.matrix_rep_M(system, part)
        if rep.shape[0] == 0:
            radius[part] = 0.0
            exact[part] = Radical(0) if system.backend == EXACT else None
            spectrum[part] = ()
            continue
        if system.backend == EXACT:
            rad_f, rad_e = linalg.certified_spectral_radius(rep)
            radius[part] = rad_f
            exact[part] = rad_e
            spectrum[part] = _real_spectrum(linalg.to_float_matrix(rep))
        else:
            spectrum[part] = _real_spectrum(rep)
            radius[part] = max(abs(x) for x in spectrum[part])
            exact[part] = None

    value = max(radius.values())
    overall: Radical | None = None
    if all(exact[p] is not None for p in TRACE_FREE_PARTS):
        overall = max(exact[p] for p in TRACE_FREE_PARTS)
    if overall is not None:
        irreducible = (Radical(1) - overall).sign() > 0
    else:
        irreducible = value < 1.0 - 1e-9
    return Theta1Result(value, overall, radius, exact, spectrum, irreducible)


def _scalar_action(rep: np.ndarray, backend: str):
    """The c with rep = c*I, or None."""
    n = rep.shape[0]
    c = rep[0, 0]
    if backend == EXACT:
        for i in range(n):
            for j in range(n):
                want = c if i == j else Radical(0)
                if not (rep[i, j] - want).is_zero():
                    return None
        return c
    dev = float(np.max(np.abs(rep - float(c) * np.eye(n))))
    return float(c) if dev <= 1e-12 * max(1.0, abs(float(c))) else None


def theta1_schatten(system: matsys.MatrixSystem, p, trials: int = 256, seed: int = 0):
    """Contraction factor of M on trace-free symmetric matrices in Schatten p-norm.

    When M acts as a scalar on the subspace (every gasket system does this)
    the factor is that scalar for every p and is returned exactly.  Otherwise
    the return value is a seeded random-probe maximum of ``|M(B)|_p / |B|_p``
    with local hill-climbing refinement: a lower bound on the true factor,
    not a certificate.
    """
    if not system.symmetric:
        raise ValueError("Schatten contraction factors are defined for symmetric restriction maps")
    if isinstance(p, (int, float)) and p < 1:
        raise ValueError("p must be >= 1 or 'inf'")
    rep, _ = matsys.matrix_rep_M(system, "traceless-symmetric")
    if rep.shape[0] == 0:
        return system.field.zero
    c = _scalar_action(rep, system.backend)
    if c is not None:
        return abs(c)

    fsys = matsys.to_float_system(system)
    _, basis = matsys.matrix_rep_M(fsys, "traceless-symmetric")
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


def _grams(system: matsys.MatrixSystem, levels, budget: int) -> dict | None:
    """The level-k Gram matrices of ``c_k`` for every k in ``levels``, by level.

    None when the trace-free symmetric subspace is empty.  One kernel and
    one chain of beta-weights serve every level.
    """
    basis = matsys.orthogonal_basis(system, "traceless-symmetric")
    if not basis:
        return None
    k_max = max(levels)
    symbolic.check_budget(system.n_symbols, k_max, budget)
    q = _Quad(system)
    fs = q.join([q.pack(f) for f, _ in basis])
    norms = [r for _, r in basis]
    field, m = system.field, len(basis)
    grams = {}
    weights = q.energy
    for k in range(1, k_max + 1):
        weights = q.parents(weights)
        if k not in levels:
            continue
        num, den = q.gram(q.pair(weights, fs))
        raw = q.unpack(num.reshape(-1, q.m), den)
        gram = field.zeros((m, m))
        for i in range(m):
            for j in range(i, m):
                gram[i, j] = gram[j, i] = field.div(raw[i * m + j], norms[i] * norms[j])
        grams[k] = gram
    return grams


def _smallest_eigenvalue(k: int, gram, backend: str) -> CkResult:
    if backend == EXACT:
        eigs = linalg.exact_eigenvalues_symmetric(gram)
        if eigs is not None:
            low = min(eigs)
            return CkResult(k, True, float(low), low)
        vals = np.linalg.eigvalsh(linalg.to_float_matrix(gram))
        return CkResult(k, True, float(vals[0]), None)
    vals = np.linalg.eigvalsh(gram)
    return CkResult(k, True, float(vals[0]), None)


def c_k(system: matsys.MatrixSystem, k: int, budget: int = symbolic.DEFAULT_BUDGET) -> CkResult:
    """Minimum of sum_{|alpha|=k} <A(alpha)F, A(alpha)>^2 over unit trace-free symmetric F.

    The quantity is a quadratic form in F, so the minimum is the smallest
    eigenvalue of the Gram matrix G_ij = sum_alpha t_i(alpha) t_j(alpha) with
    t_i(alpha) = <A(alpha) b_i, A(alpha)> = Tr(Psi*_alpha(E) b_i) over an
    orthonormal basis b_i = f_i / r_i of the constraint subspace.  The
    level-k beta-weights Psi*_alpha(E) = A(alpha)^T E A(alpha) come from k
    adjoint steps of the packed kernel, starting at E; one pairing with the
    unnormalised orthogonal basis f_i, whose entries lie in the field of E,
    gives every t_i(alpha) r_i, and one product over the word axis sums
    them to G'_ij = G_ij r_i r_j.  The norms r_i = |f_i|_E may need a square
    root outside that field, so they divide G' only at the end, once per
    basis pair.  No iterative optimization is involved.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    grams = _grams(system, (k,), budget)
    if grams is None:
        return CkResult(k, False, None, None)
    return _smallest_eigenvalue(k, grams[k], system.backend)


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
    """Both decay rates from c_1 ... c_k_max, read off one chain of beta-weights."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    grams = _grams(system, range(1, k_max + 1), budget)
    if grams is None:
        cs = {k: CkResult(k, False, None, None) for k in range(1, k_max + 1)}
        return Theta2Result(False, True, None, None, None, None, cs)
    cs = {k: _smallest_eigenvalue(k, g, system.backend) for k, g in grams.items()}

    irreducibility_ok = all(r.value is not None and r.value > 0 for r in cs.values())

    c1 = cs[1]
    if c1.exact is not None:
        rem = Radical(1) - c1.exact
        lemma_exact = system.field.sqrt(rem)
        lemma_value = float(lemma_exact) if lemma_exact is not None else float(rem) ** 0.5
    else:
        lemma_exact = None
        lemma_value = (1.0 - c1.value) ** 0.5

    # candidates (1 - c_k)^{1/k}; exact closed forms exist for k <= 2 only
    cands: dict[int, tuple[float, Radical | None]] = {}
    for k, r in cs.items():
        fval = (1.0 - r.value) ** (1.0 / k)
        ex = None
        if r.exact is not None:
            rem = Radical(1) - r.exact
            if k == 1:
                ex = rem
            elif k == 2:
                ex = system.field.sqrt(rem)
        cands[k] = (fval, ex)
    k_best = min(cands, key=lambda k: cands[k][0])
    thm_value, thm_exact = cands[k_best]
    return Theta2Result(True, irreducibility_ok, lemma_value, lemma_exact, thm_value, thm_exact, cs)


@dataclass(frozen=True)
class SpectralReport:
    """Bundle of every spectral constant the library produces for one system."""

    backend: str
    theta1: Theta1Result
    theta1_p: dict
    theta2: Theta2Result
    gamma: float | None
    rho: float | None


def spectral_report(
    system: matsys.MatrixSystem,
    k_max: int = 2,
    gamma: float | None = None,
    budget: int = symbolic.DEFAULT_BUDGET,
) -> SpectralReport:
    """Compute theta1, the Schatten factors, c_k for k <= k_max, and theta2.

    ``rho`` is max(gamma, theta1) when a gamma is supplied: the radius of the
    disc that contains the non-peripheral transfer-operator spectrum.
    """
    t1 = theta1(system)
    t1p = {}
    if system.symmetric:
        for p in (1, 2, "inf"):
            t1p[str(p)] = theta1_schatten(system, p)
    t2 = theta2(system, k_max, budget)
    rho = max(gamma, t1.value) if gamma is not None else None
    return SpectralReport(system.backend, t1, t1p, t2, gamma, rho)


# -- renormalization ---------------------------------------------------------


def _sym_pairs(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i, d)]


def _sym_coords(mat, pairs):
    return [mat[i, j] for (i, j) in pairs]


def _sym_from_coords(coords, pairs, d, field):
    out = field.zeros((d, d))
    for c, (i, j) in zip(coords, pairs):
        out[i, j] = c
        out[j, i] = c
    return out


def _sym_rep(maps, d, field, star: bool):
    """Matrix of B -> sum_s A_s* B A_s (star) or sum_s A_s B A_s* in plain symmetric coords."""
    pairs = _sym_pairs(d)
    m = len(pairs)
    rep = field.zeros((m, m))
    for v, (i, j) in enumerate(pairs):
        basis = field.zeros((d, d))
        basis[i, j] = field.one
        basis[j, i] = field.one
        img = sum((a.T @ basis @ a if star else a @ basis @ a.T) for a in maps)
        for u, c in enumerate(_sym_coords(img, pairs)):
            rep[u, v] = c
    return rep


def _perron_exact(rep, pairs, d):
    """Perron eigenvalue and positive definite fixed form, certified exactly."""
    rad_f, rad_e = linalg.certified_spectral_radius(rep)
    if rad_e is None:
        raise ValueError(
            "Perron eigenvalue is not certifiable in the exact scalar field; use the float backend"
        )
    m = rep.shape[0]
    shifted = rep.copy()
    for i in range(m):
        shifted[i, i] = shifted[i, i] - rad_e
    null = linalg.nullspace_exact(shifted)
    if len(null) != 1:
        raise ValueError("Perron eigenspace is degenerate; the raw maps are reducible")
    form = _sym_from_coords(null[0], pairs, d, linalg.FIELDS[EXACT])
    tr = np.trace(form)
    if tr.sign() < 0:
        form = -1 * form
    for mi in linalg.leading_minors(form):
        if mi.sign() <= 0:
            raise ValueError("Perron eigenvector is not positive definite; system is degenerate")
    return rad_e, form


def _perron_float(rep):
    eigvals, eigvecs = np.linalg.eig(rep)
    order = np.argsort(-np.abs(eigvals))
    lead = order[0]
    mu = eigvals[lead]
    if abs(mu.imag) > 1e-9:
        raise ValueError("leading eigenvalue is not real; raw maps admit no Perron form")
    vec = eigvecs[:, lead].real
    return float(mu.real), vec


def renormalize(raw_maps, backend: str = EXACT, alphabet=None, tol: float = 1e-10) -> matsys.MatrixSystem:
    """Build a system satisfying both fixed-point equations from raw restriction maps.

    Finds the Perron eigenvalue mu and fixed forms of B -> sum A_s* B A_s and
    its dual, rescales the maps by mu^(-1/2), and changes basis so the dual
    fixed form becomes the identity; the primal form, pushed through the same
    basis change and normalized to unit trace, is the energy.  The output
    validates exactly on the exact backend.  Rescaled inputs t*A_s give the
    same output for every t > 0.

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
    pairs = _sym_pairs(d)

    if backend == EXACT:
        for a in mats:
            if linalg.det_exact(a).is_zero():
                raise ValueError("raw maps must be injective")
        rep_primal = _sym_rep(mats, d, field, star=True)
        rep_dual = _sym_rep(mats, d, field, star=False)
        mu, e0 = _perron_exact(rep_primal, pairs, d)
        mu_dual, r0 = _perron_exact(rep_dual, pairs, d)
        if not (mu - mu_dual).is_zero():
            raise ValueError("primal and dual Perron eigenvalues disagree")
        lam = field.sqrt(Radical(1) / mu)
        if lam is None:
            raise ValueError(
                "scaling factor mu^(-1/2) leaves the exact scalar field; use the float backend"
            )
        upper = linalg.cholesky_exact(r0)  # r0 = U^T U
        upper_inv = linalg.solve_exact(upper, linalg.identity(d, EXACT))
        new_maps = [lam * (upper_inv.T @ a @ upper.T) for a in mats]
        energy = upper @ e0 @ upper.T
    else:
        for a in mats:
            if abs(np.linalg.det(a)) < tol:
                raise ValueError("raw maps must be injective")
        rep_primal = _sym_rep(mats, d, field, star=True)
        rep_dual = _sym_rep(mats, d, field, star=False)
        mu, v_primal = _perron_float(rep_primal)
        mu_dual, v_dual = _perron_float(rep_dual)
        if abs(mu - mu_dual) > tol * max(1.0, abs(mu)):
            raise ValueError("primal and dual Perron eigenvalues disagree beyond tolerance")
        e0 = _sym_from_coords(v_primal, pairs, d, field)
        r0 = _sym_from_coords(v_dual, pairs, d, field)
        if np.trace(e0) < 0:
            e0 = -e0
        if np.trace(r0) < 0:
            r0 = -r0
        if np.linalg.eigvalsh(e0)[0] <= tol or np.linalg.eigvalsh(r0)[0] <= tol:
            raise ValueError("Perron eigenvector is not positive definite; system is degenerate")
        lam = mu ** -0.5
        lower = np.linalg.cholesky(r0)
        upper = lower.T  # r0 = U^T U
        upper_inv = np.linalg.inv(upper)
        new_maps = [lam * (upper_inv.T @ a @ upper.T) for a in mats]
        energy = upper @ e0 @ upper.T
    energy = field.div(energy, np.trace(energy))

    if alphabet is None:
        alphabet = tuple(str(i) for i in range(len(new_maps)))
    return matsys.make_system(alphabet, new_maps, energy, backend)
