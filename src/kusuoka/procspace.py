"""Matrix-valued process space over the word tree.

A finite-degree process assigns a d x d matrix to every word of one fixed
length; lower levels are recovered by summing against the system maps,
higher levels by the extension rule F(alpha s) = A_s F(alpha), which leaves
the energy inner product of two tables unchanged.  On this space live the
word shift (an isometry), its adjoint transfer operator (a contraction),
the isometric embedding of scalar cylinder functions, and the projection
back onto embedded functions whose output is a scalar martingale.  The
checks at the bottom confirm the two structural facts the rest of the
package leans on: the transfer operator intertwines exactly with the
scalar transfer operator through the embedding, and the projection of a
fresh-innovation process has geometrically decaying martingale components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, matsys, measure, spectral, symbolic
from .exactnum import Radical
from .linalg import EXACT
from .matsys import MatrixSystem
from .measure import KusuokaMeasure
from .symbolic import CylinderFunction

__all__ = [
    "FiniteProcess",
    "MartingaleRep",
    "QDecayRow",
    "constant_process",
    "identity_process",
    "extend",
    "process_inner",
    "process_norm_sq",
    "shift_T",
    "transfer_L",
    "embed_phi",
    "project_Q",
    "martingale_decompose",
    "gamma_norm",
    "dilation_check",
    "innovation_residual",
    "innovation_part",
    "random_innovation_process",
    "q_decay_check",
]


@dataclass(frozen=True, eq=False)
class FiniteProcess:
    """Matrix table over all words of length ``degree``.

    ``values`` is indexed by word index.  The table determines the process
    on every level: downward by averaging, upward by the extension rule.
    """

    system: MatrixSystem
    degree: int
    values: tuple

    def __post_init__(self):
        expect = self.system.n_symbols ** self.degree
        if len(self.values) != expect:
            raise ValueError(f"table has {len(self.values)} entries, expected {expect}")


def constant_process(system: MatrixSystem, b) -> FiniteProcess:
    """Degree-0 process with value ``b``; extends to alpha -> A(alpha) b."""
    return FiniteProcess(system, 0, (b,))


def identity_process(system: MatrixSystem) -> FiniteProcess:
    return constant_process(system, linalg.identity(system.dim, system.backend))


def _check_same_system(f: FiniteProcess, g: FiniteProcess) -> None:
    a, b = f.system, g.system
    if a is b:
        return
    if a.alphabet != b.alphabet or a.dim != b.dim or a.backend != b.backend:
        raise ValueError("processes live over different systems")


def extend(f: FiniteProcess, levels: int = 1, budget: int = symbolic.DEFAULT_BUDGET) -> FiniteProcess:
    """Push the table ``levels`` steps deeper via F(alpha s) = A_s F(alpha)."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    sys_ = f.system
    symbolic.check_budget(sys_.n_symbols, f.degree + levels, budget)
    vals = f.values
    for _ in range(levels):
        vals = symbolic.next_level(vals, sys_.maps)
    return FiniteProcess(sys_, f.degree + levels, tuple(vals))


def process_inner(f: FiniteProcess, g: FiniteProcess, budget: int = symbolic.DEFAULT_BUDGET):
    """Energy inner product of the two tables at level max(deg f, deg g).

    Extension makes the value independent of the evaluation level, so the
    lower-degree table is extended rather than the higher one averaged.
    """
    _check_same_system(f, g)
    level = max(f.degree, g.degree)
    fv = _stack(f.system, extend(f, level - f.degree, budget).values)
    gv = _stack(f.system, extend(g, level - g.degree, budget).values)
    return (gv * (f.system.energy @ fv)).sum()  # sum of Tr(G^T E F)


def process_norm_sq(f: FiniteProcess, budget: int = symbolic.DEFAULT_BUDGET):
    return process_inner(f, f, budget)


def _stack(system: MatrixSystem, mats) -> np.ndarray:
    """d x d matrices as one (count, d, d) array of the backend."""
    return np.array(mats, dtype=system.field.dtype).reshape(-1, system.dim, system.dim)


def shift_T(f: FiniteProcess) -> FiniteProcess:
    """Word shift: (T F)(s alpha) = F(alpha) A_s.  Degree +1, isometric."""
    out = _stack(f.system, f.values)[None] @ _stack(f.system, f.system.maps)[:, None]
    return FiniteProcess(f.system, f.degree + 1, tuple(_stack(f.system, out)))


def transfer_L(f: FiniteProcess) -> FiniteProcess:
    """Adjoint of the shift: (L F)(alpha) = sum_s F(s alpha) A_s^T.

    Drops the leading symbol, so the degree goes down by one; a degree-0
    input stays at degree 0, its value averaged by the two-sided map.
    """
    sys_ = f.system
    if f.degree == 0:
        return constant_process(sys_, matsys.apply_M(sys_, f.values[0]))
    vals = _stack(sys_, f.values).reshape(sys_.n_symbols, -1, sys_.dim, sys_.dim)
    out = (vals @ _stack(sys_, [a.T for a in sys_.maps])[:, None]).sum(axis=0)
    return FiniteProcess(sys_, f.degree - 1, tuple(out))


def embed_phi(system: MatrixSystem, f: CylinderFunction, budget: int = symbolic.DEFAULT_BUDGET) -> FiniteProcess:
    """Isometric embedding of a cylinder function: alpha -> f(alpha) A(alpha)."""
    if f.n_symbols != system.n_symbols:
        raise ValueError("cylinder function and system disagree on the alphabet")
    mats = KusuokaMeasure(system).level_matrices(f.depth, budget)
    vals = tuple(f.values[i] * mats[i] for i in range(len(mats)))
    return FiniteProcess(system, f.depth, vals)


@dataclass(frozen=True, eq=False)
class MartingaleRep:
    """Martingale difference components of a square-integrable function.

    ``components[j]`` is a depth-j cylinder function, measurable at level j
    and orthogonal to everything measurable at level j-1; their refinements
    sum back to the original function and their squared norms satisfy
    Parseval.
    """

    measure: KusuokaMeasure
    components: tuple

    @property
    def depth(self) -> int:
        return len(self.components) - 1

    def component_norm_sq(self, j: int):
        comp = self.components[j]
        masses = self.measure.level_nu(comp.depth)
        total = linalg.FIELDS[comp.backend].zero
        for v, w in zip(comp.values, masses):
            total = total + v * v * w
        return total

    def norm_sq(self):
        total = self.component_norm_sq(0)
        for j in range(1, len(self.components)):
            total = total + self.component_norm_sq(j)
        return total

    def function(self) -> CylinderFunction:
        """Sum of the components, refined to the deepest level."""
        out = self.components[0].refine(self.depth)
        for comp in self.components[1:]:
            out = out + comp.refine(self.depth)
        return out


def martingale_decompose(m: KusuokaMeasure, f: CylinderFunction, budget: int = symbolic.DEFAULT_BUDGET) -> MartingaleRep:
    """Split f into martingale differences along the cylinder filtration.

    Level averages are taken with the cylinder masses; component j is the
    level-j average minus the level-(j-1) average pulled back to depth j.
    """
    if f.n_symbols != m.system.n_symbols:
        raise ValueError("cylinder function and system disagree on the alphabet")
    n, dtype = m.system.n_symbols, m.system.field.dtype
    levels = [None] * (f.depth + 1)
    levels[f.depth] = f.values
    for j in range(f.depth, 0, -1):
        mass = (levels[j] * np.array(m.level_nu(j, budget), dtype=dtype)).reshape(-1, n).sum(axis=1)
        levels[j - 1] = mass / np.array(m.level_nu(j - 1, budget), dtype=dtype)
    comps = [CylinderFunction(0, n, levels[0], f.backend)]
    for j in range(1, f.depth + 1):
        diff = levels[j] - np.repeat(levels[j - 1], n)
        comps.append(CylinderFunction(j, n, diff, f.backend))
    return MartingaleRep(m, tuple(comps))


def project_Q(
    m: KusuokaMeasure,
    f: FiniteProcess,
    up_to_level: int | None = None,
    budget: int = symbolic.DEFAULT_BUDGET,
) -> MartingaleRep:
    """Project a process onto embedded functions, as a martingale.

    The scalar shadow of the table is q(alpha) = <F(alpha), A(alpha)>_E
    / nu(alpha).  Extension of F keeps the family of shadows consistent
    across levels, so a single decomposition at the deepest requested
    level carries all components, including the tail beyond the table's
    own degree.  That tail needs no deeper table: F(alpha w) = A(w) F(alpha)
    and A(alpha w) = A(w) A(alpha) give q(alpha w) nu(alpha w) =
    Tr(Psi*_w(E) F(alpha) A(alpha)^T), one product of the rows
    (A(alpha) F(alpha)^T).ravel() with the beta-weights of the words w,
    row-major in alpha w.  It runs in scalars of the backend: F need not
    lie in the field of the maps.
    """
    sys_ = m.system
    level = f.degree if up_to_level is None else max(f.degree, up_to_level)
    symbolic.check_budget(sys_.n_symbols, level, budget)
    rows = _stack(sys_, m.level_matrices(f.degree, budget)) @ _stack(sys_, f.values).transpose(0, 2, 1)
    quad = m._quad
    betas = quad.unpack_matrices(*quad.betas(level - f.degree)[-1], sys_.field)
    shadow = rows.reshape(len(rows), -1) @ betas.reshape(len(betas), -1).T
    arr = shadow.ravel() / np.array(m.level_nu(level, budget), dtype=sys_.field.dtype)
    qf = CylinderFunction(level, sys_.n_symbols, arr, sys_.backend)
    return martingale_decompose(m, qf, budget)


def _norm_scalar(x, field):
    """sqrt on the backend, falling back to float when it leaves the field."""
    root = field.sqrt(x)
    return float(x) ** 0.5 if root is None else root


def gamma_norm(rep: MartingaleRep, gamma):
    """Weighted component-norm sum:  sum_j gamma^(-j) ||comp_j||.

    Stays in the exact scalar field while every component norm is
    representable there, otherwise degrades to float.
    """
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    sys_ = rep.measure.system
    norms = [_norm_scalar(rep.component_norm_sq(j), sys_.field) for j in range(len(rep.components))]
    if sys_.backend == EXACT and all(isinstance(x, Radical) for x in norms):
        try:
            gam = Radical(gamma)
        except TypeError:
            gam = None  # float weight requested on exact components
        if gam is not None:
            total, weight = Radical(0), Radical(1)
            for x in norms:
                total = total + weight * x
                weight = weight / gam
            return total
    total, weight = 0.0, 1.0
    for x in norms:
        total += weight * float(x)
        weight /= g
    return total


def dilation_check(
    m: KusuokaMeasure,
    f: CylinderFunction,
    k: int,
    level: int | None = None,
    budget: int = symbolic.DEFAULT_BUDGET,
):
    """Residual of the dilation identity: transfer-then-project vs direct.

    Path (a) embeds f, applies the process transfer operator k times and
    projects back, keeping components up to ``level``.  Path (b) computes
    the k-step scalar transfer image directly on every level cylinder:
    through the prefix-state trace formula when the shift consumes all of
    f's depth, through a common-refinement sum otherwise.  The two
    martingale representations agree; the returned max component gap is
    zero on the exact backend.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    sys_ = m.system
    if f.n_symbols != sys_.n_symbols:
        raise ValueError("cylinder function and system disagree on the alphabet")
    if level is None:
        level = f.depth
    if level < 0:
        raise ValueError("level must be >= 0")
    n = sys_.n_symbols

    g = embed_phi(sys_, f, budget)
    for _ in range(k):
        g = transfer_L(g)
    rep_a = project_Q(m, g, up_to_level=level, budget=budget)

    if k >= f.depth:
        vals = [
            measure.transfer_apply(m, f, k - f.depth, symbolic.index_word(i, level, n), budget)
            for i in range(n ** level)
        ]
    else:
        big = max(f.depth, k + level)
        symbolic.check_budget(n, big, budget)
        masses = m.level_nu(big, budget)
        f_div = n ** (big - f.depth)
        b_div = n ** (big - k - level)
        num = [sys_.field.zero] * (n ** level)
        for w in range(n ** big):
            beta = (w // b_div) % (n ** level)
            num[beta] = num[beta] + f.values[w // f_div] * masses[w]
        level_mass = m.level_nu(level, budget)
        vals = [num[i] / level_mass[i] for i in range(n ** level)]
    arr = np.array(vals, dtype=sys_.field.dtype)
    rep_b = martingale_decompose(m, CylinderFunction(level, n, arr, sys_.backend), budget)

    diffs = []
    for j in range(level + 1):
        diffs.extend(rep_a.components[j].values - rep_b.components[j].values)
    return max((abs(v) for v in diffs), default=sys_.field.zero)


# -- fresh-innovation subspace ------------------------------------------------


def innovation_residual(f: FiniteProcess) -> float:
    """Max violation of the per-parent freshness constraint.

    A degree-k table is orthogonal to every extended degree-(k-1) table
    exactly when sum_s A_s^T E F(alpha s) vanishes for each parent alpha;
    the return value is the largest Frobenius norm of those sums.
    """
    sys_ = f.system
    if f.degree == 0:
        return 0.0
    vals = _stack(sys_, f.values).reshape(-1, sys_.n_symbols, sys_.dim, sys_.dim)
    sums = (_stack(sys_, [a.T @ sys_.energy for a in sys_.maps]) @ vals).sum(axis=1)
    return max(float(linalg.frobenius_sq(acc)) ** 0.5 for acc in sums)


def _constraint_matrix(system: MatrixSystem):
    """Stacked child-block constraint rows; kernel = fresh innovations."""
    n, d = system.n_symbols, system.dim
    c = linalg.zeros((d * d, n * d * d), system.backend)
    for s in range(n):
        k = system.maps[s].T @ system.energy
        for i in range(d):
            for mm in range(d):
                for a in range(d):
                    c[i * d + a, s * d * d + mm * d + a] = k[i, mm]
    return c


def innovation_part(f: FiniteProcess) -> FiniteProcess:
    """Euclidean projection of each parent's child block onto the constraint kernel."""
    sys_ = f.system
    if f.degree == 0:
        return f
    n, d = sys_.n_symbols, sys_.dim
    c = _constraint_matrix(sys_)
    gram = c @ c.T
    if sys_.backend == EXACT:
        x = linalg.solve_exact(gram, c)
    else:
        x = np.linalg.solve(gram, c)
    out = list(f.values)
    for p in range(n ** (f.degree - 1)):
        v = np.concatenate([np.asarray(f.values[p * n + s]).reshape(d * d) for s in range(n)])
        w = v - c.T @ (x @ v)
        for s in range(n):
            out[p * n + s] = w[s * d * d:(s + 1) * d * d].reshape(d, d)
    return FiniteProcess(sys_, f.degree, tuple(out))


def random_innovation_process(system: MatrixSystem, k: int, rng: np.random.Generator) -> FiniteProcess:
    """Gaussian degree-k table projected into the fresh-innovation subspace.

    Float backend only; degree 0 needs no projection (nothing is older).
    """
    if system.backend == EXACT:
        raise ValueError("random tables are drawn on the float backend")
    if k < 0:
        raise ValueError("degree must be >= 0")
    n, d = system.n_symbols, system.dim
    raw = rng.standard_normal((n ** k, d, d))
    f = FiniteProcess(system, k, tuple(raw))
    return innovation_part(f) if k >= 1 else f


@dataclass(frozen=True)
class QDecayRow:
    """Empirical worst component-to-norm ratio at level j vs theta2^(j-k)."""

    j: int
    max_ratio: float
    bound: float
    ok: bool


def q_decay_check(
    system: MatrixSystem,
    k: int,
    j_max: int,
    trials: int,
    seed: int,
    budget: int = symbolic.DEFAULT_BUDGET,
) -> list[QDecayRow]:
    """Monte Carlo check of geometric martingale decay after projection.

    Each trial draws a random fresh-innovation table of degree k, projects
    it to a scalar martingale and records ||component_j|| / ||G|| for
    k <= j <= j_max.  Rates come from the one-step irreducibility constant;
    the comparison allows 1e-12 of float slack.  Trials are independently
    seeded streams.
    """
    if k < 0 or j_max < k:
        raise ValueError("need 0 <= k <= j_max")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t2 = spectral.theta2(system, k_max=1, budget=budget)
    c1 = t2.c_values.get(1) if t2.c_values else None
    if not t2.applicable or c1 is None or c1.value is None or c1.value <= 0:
        raise ValueError("decay rate undefined: irreducibility constant c_1 vanishes")

    fsys = matsys.to_float_system(system)
    m = measure.kusuoka_measure(fsys, check=False)

    results = []
    for trial_seed in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.Philox(trial_seed))
        g = random_innovation_process(fsys, k, rng)
        norm = float(process_norm_sq(g, budget)) ** 0.5
        rep = project_Q(m, g, up_to_level=j_max, budget=budget)
        results.append([float(rep.component_norm_sq(j)) ** 0.5 / norm for j in range(k, j_max + 1)])

    rows = []
    for idx, j in enumerate(range(k, j_max + 1)):
        worst = max(r[idx] for r in results)
        bound = t2.lemma_value ** (j - k)
        rows.append(QDecayRow(j, worst, bound, worst <= bound + 1e-12))
    return rows
