"""Matrix-valued process space over the word tree.

A finite-degree process assigns a d x d matrix to every word of one fixed
length; lower levels are recovered by summing against the system maps,
higher levels by the extension rule F(alpha s) = A_s F(alpha), which leaves
the energy inner product of two tables unchanged.  A table is stored packed,
as one ``(n^k, d, d, m)`` integer stack in a multiquadratic field that holds
the maps, E and its entries (:mod:`kusuoka.multiquad`), and every operation
here is a stacked product of such stacks; a table is unpacked to the
backend's scalars only when its ``values`` are read, and a scalar result
only at the end.  On this space live the word shift (an isometry), its
adjoint transfer operator (a contraction), the isometric embedding of
scalar cylinder functions, and the projection back onto embedded functions
whose output is a scalar martingale.  Fresh innovations are the tables
whose child blocks satisfy sum_s K_s F(alpha s) = 0 with K_s = A_s^T E;
projecting onto them takes one d x d solve with G = sum_s K_s K_s^T, for
all parents at once.  The checks at the bottom confirm the two structural
facts the rest of the package leans on: the transfer operator intertwines
exactly with the scalar transfer operator through the embedding, and the
projection of a fresh-innovation process has geometrically decaying
martingale components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg, matsys, measure, spectral, symbolic
from .exactnum import Radical
from .matsys import MatrixSystem
from .measure import KusuokaMeasure
from .multiquad import MapField, _radicands_of, _terms, map_field
from .quadform import symmetric_index
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


@dataclass(frozen=True, eq=False, init=False)
class FiniteProcess:
    """Matrix table over all words of length ``degree``.

    The table is stored packed: integer coordinates ``(n^degree, d, d, m)``
    over one denominator in a multiquadratic field that holds the maps, E
    and the table's own entries, next to the maps and E packed in that field
    (a :class:`~kusuoka.multiquad.MapField`).  Every operation below builds
    its result from the packed table and passes the packed maps on, so a
    chain of operations packs them once.  ``values`` is the public,
    read-only ``(n^degree, d, d)`` array of the backend; it is unpacked the
    first time it is read, and a process built from values keeps them.  Any
    sequence of d x d matrices is accepted on construction.  The table
    determines the process on every level: downward by averaging, upward by
    the extension rule.
    """

    system: MatrixSystem
    degree: int
    _maps: MapField = field(repr=False)
    _table: tuple = field(repr=False)

    def __init__(self, system: MatrixSystem, degree: int, values):
        shape = (system.n_symbols ** degree, system.dim, system.dim)
        vals = np.array(values, dtype=system.field.dtype)
        if vals.shape != shape:
            raise ValueError(f"table has shape {vals.shape}, expected {shape}")
        vals.setflags(write=False)
        terms = _terms(vals.ravel())
        maps = map_field(system.maps, system.energy, _radicands_of(terms))
        # the frozen fields, and ``values`` already read
        self.__dict__.update(system=system, degree=degree, _maps=maps, _table=maps.fld.pack_array(vals, terms), values=vals)

    @classmethod
    def _packed(cls, system: MatrixSystem, degree: int, maps: MapField, table) -> "FiniteProcess":
        """A process on a packed table in the field of ``maps``."""
        out = object.__new__(cls)
        out.__dict__.update(system=system, degree=degree, _maps=maps, _table=table)
        return out

    @cached_property
    def values(self) -> np.ndarray:
        vals = self._maps.fld.unpack_array(*self._table)
        vals.setflags(write=False)
        return vals


def constant_process(system: MatrixSystem, b) -> FiniteProcess:
    """Degree-0 process with value ``b``; extends to alpha -> A(alpha) b."""
    return FiniteProcess(system, 0, [b])


def identity_process(system: MatrixSystem) -> FiniteProcess:
    return constant_process(system, linalg.identity(system.dim, system.backend))


def _check_same_system(f: FiniteProcess, g: FiniteProcess) -> None:
    a, b = f.system, g.system
    if a is b:
        return
    if a.alphabet != b.alphabet or a.dim != b.dim or a.backend != b.backend:
        raise ValueError("processes live over different systems")


def _one_field(f: FiniteProcess, g: FiniteProcess):
    """The tables of f and g in one field: (its maps, f's table, g's table)."""
    ff, gf = f._maps.fld, g._maps.fld
    if ff.radicand == gf.radicand:
        return f._maps, f._table, g._table
    maps = map_field(f.system.maps, f.system.energy, set(ff.radicand) | set(gf.radicand))
    return maps, maps.fld._convert(ff, *f._table), maps.fld._convert(gf, *g._table)


def _transposed(stack):
    num, den = stack
    return num.swapaxes(-3, -2), den


def extend(f: FiniteProcess, levels: int = 1, budget: int = symbolic.DEFAULT_BUDGET) -> FiniteProcess:
    """Push the table ``levels`` steps deeper via F(alpha s) = A_s F(alpha)."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    sys_ = f.system
    symbolic.check_budget(sys_.n_symbols, f.degree + levels, budget)
    table = f._table
    for _ in range(levels):
        table = symbolic.next_level(table, f._maps)
    return FiniteProcess._packed(sys_, f.degree + levels, f._maps, table)


def process_inner(f: FiniteProcess, g: FiniteProcess, budget: int = symbolic.DEFAULT_BUDGET):
    """Energy inner product of the two tables at level max(deg f, deg g).

    Extension makes the value independent of the evaluation level, so the
    lower-degree table is extended rather than the higher one averaged.
    """
    _check_same_system(f, g)
    level = max(f.degree, g.degree)
    f, g = (extend(x, level - x.degree, budget) if x.degree < level else x for x in (f, g))
    maps, ft, gt = _one_field(f, g)
    fld = maps.fld
    ef_num, ef_den = fld.matmul(maps.energy, ft)
    total = fld.mul(gt[0], ef_num).sum(axis=(0, 1, 2))  # sum of Tr(G^T E F)
    return fld.unpack(total[None], gt[1] * ef_den)[0]


def process_norm_sq(f: FiniteProcess, budget: int = symbolic.DEFAULT_BUDGET):
    return process_inner(f, f, budget)


def shift_T(f: FiniteProcess) -> FiniteProcess:
    """Word shift: (T F)(s alpha) = F(alpha) A_s.  Degree +1, isometric."""
    (num, den), (a, a_den) = f._table, f._maps.maps
    out, den = f._maps.fld.matmul((num[None], den), (a[:, None], a_den))
    return FiniteProcess._packed(f.system, f.degree + 1, f._maps, (out.reshape(-1, *out.shape[2:]), den))


def transfer_L(f: FiniteProcess) -> FiniteProcess:
    """Adjoint of the shift: (L F)(alpha) = sum_s F(s alpha) A_s^T.

    Drops the leading symbol, so the degree goes down by one.  A degree-0
    input is extended one level first and so stays at degree 0: its value
    is averaged by the two-sided map, L(F_0) = M(F_0).
    """
    sys_ = f.system
    f = extend(f, max(1 - f.degree, 0))
    (num, den), (a, a_den) = f._table, _transposed(f._maps.maps)
    fld = f._maps.fld
    out, den = fld.matmul((num.reshape(sys_.n_symbols, -1, *num.shape[1:]), den), (a[:, None], a_den))
    return FiniteProcess._packed(sys_, f.degree - 1, f._maps, fld._reduce(out.sum(axis=0), den))


def embed_phi(system: MatrixSystem, f: CylinderFunction, budget: int = symbolic.DEFAULT_BUDGET) -> FiniteProcess:
    """Isometric embedding of a cylinder function: alpha -> f(alpha) A(alpha).

    The maps are packed afresh in a field that holds f's values, and the
    word matrices of f's depth extended from I there (:func:`_embed`).
    """
    if f.n_symbols != system.n_symbols:
        raise ValueError("cylinder function and system disagree on the alphabet")
    terms = _terms(f.values)
    maps = map_field(system.maps, system.energy, _radicands_of(terms))
    num, den = maps.identity
    words = extend(FiniteProcess._packed(system, 0, maps, (num[None], den)), f.depth, budget)._table
    return _embed(system, f, terms, maps, words)


def _embed(system: MatrixSystem, f: CylinderFunction, terms, maps: MapField, words) -> FiniteProcess:
    """The embedding of f from the packed word matrices ``words`` (n^depth, d, d, m) of f's depth in the field of ``maps``.

    ``terms`` is :func:`_terms` of f's values.  When they add a radicand,
    the maps and the words are first moved into the field that holds them
    (:meth:`MapField.holding`); then each word matrix is multiplied by its
    packed value, one field product for the whole table.
    """
    held = maps.holding(_radicands_of(terms))
    fld = held.fld
    num, den = fld._convert(maps.fld, *words)
    vals, vals_den = fld.pack_array(f.values, terms)
    return FiniteProcess._packed(system, f.depth, held, fld._reduce(fld.mul(vals[:, None, None], num), vals_den * den))


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
        return (comp.values * comp.values * self.measure._nu_array(comp.depth)).sum()

    def norm_sq(self):
        return sum(map(self.component_norm_sq, range(1, len(self.components))), self.component_norm_sq(0))

    def function(self) -> CylinderFunction:
        """Sum of the components, refined to the deepest level."""
        return sum((c.refine(self.depth) for c in self.components[1:]), self.components[0].refine(self.depth))


def _level_masses(m: KusuokaMeasure, fld, level: int, budget: int):
    """The masses of every level cylinder as a stack (n^level, m) of ``fld``, which holds the kernel's field."""
    return fld._convert(m._quad, *m._quad.nu(m._level_table(level, budget)))


def _components(m: KusuokaMeasure, fld, weighted, masses, level: int):
    """The martingale components of f from its packed mass-weighted values f nu at the deepest level, as one stack.

    ``weighted`` and ``masses`` are stacks (n^level, m) of ``fld``, the
    second from :func:`_level_masses`.  The sums of f nu and of nu over the
    cylinders of each level are sums of strided slices of the deepest
    stacks, and the level averages are the first sums divided by the
    second, all levels at once (:meth:`~kusuoka.multiquad.Multiquad.divide`):
    one inverse of the masses, one product and one division by their
    rational norms.  The inverse skips every generator the masses do not
    use, so the rational masses of the gaskets are inverted in Q.
    Component j is the level-j average minus the level-(j-1) average
    pulled back to depth j.  The result (1 + n + ... + n^level, m) holds
    component 0, then component 1, and so on, each in word order.
    """
    n, k = m.system.n_symbols, fld.m
    (num, den), (mass, mass_den) = weighted, masses
    # the coordinates of f nu and of nu as rows, whose words are summed level by level up to the root;
    # the n children of a cylinder are n consecutive words
    levels = [np.concatenate([num.T, mass.T])]
    for _ in range(level):
        words = levels[0]
        total = words[:, 0::n]
        for s in range(1, n):
            total = total + words[:, s::n]
        levels.insert(0, total)
    sums = np.concatenate(levels, axis=1)
    avg, avg_den = fld.divide((sums[:k].T, den), (sums[k:].T, mass_den))
    # below level 0, less every level-j average but the deepest pulled back to depth j + 1
    avg[1:] -= avg[:len(avg) - len(num)].repeat(n, axis=0)
    return avg, avg_den


def _split(m: KusuokaMeasure, fld, weighted, masses, level: int) -> MartingaleRep:
    """The martingale components of f as a :class:`MartingaleRep`: the packed core :func:`_components`, each entry unpacked once.

    :func:`martingale_decompose` and :func:`project_Q` end here;
    :func:`dilation_check` compares the two cores' stacks and unpacks only
    a nonzero gap.
    """
    n = m.system.n_symbols
    vals = fld.unpack_array(*_components(m, fld, weighted, masses, level))
    comps, start = [], 0
    for j in range(level + 1):
        comps.append(CylinderFunction(j, n, vals[start:start + n ** j], m.system.backend))
        start += n ** j
    return MartingaleRep(m, tuple(comps))


def martingale_decompose(m: KusuokaMeasure, f: CylinderFunction, budget: int = symbolic.DEFAULT_BUDGET) -> MartingaleRep:
    """Split f into martingale differences along the cylinder filtration.

    Level averages are taken with the cylinder masses; component j is the
    level-j average minus the level-(j-1) average pulled back to depth j.
    f is packed in the kernel's field, extended by f's radicands, and
    multiplied once by the packed masses of its level (:func:`_split`).
    """
    if f.n_symbols != m.system.n_symbols:
        raise ValueError("cylinder function and system disagree on the alphabet")
    fld, (fv, fv_den) = m._quad.pack_holding(f.values)
    masses = _level_masses(m, fld, f.depth, budget)
    return _split(m, fld, (fld.mul(fv, masses[0]), fv_den * masses[1]), masses, f.depth)


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
    row-major in alpha w.  It runs on the packed tables in the field of F,
    which need not be the field of the maps.  The products q nu are the
    mass-weighted values the packed split takes (:func:`_split`), so the
    shadow is never divided by the masses on its own.
    """
    level = f.degree if up_to_level is None else max(f.degree, up_to_level)
    fld = f._maps.fld
    return _split(m, fld, _shadows(m, f, level, budget), _level_masses(m, fld, level, budget), level)


def _shadows(m: KusuokaMeasure, f: FiniteProcess, level: int, budget: int):
    """The products q nu of f's shadow and the masses at ``level`` >= f.degree, as a stack (n^level, m) of f's field."""
    sys_ = m.system
    symbolic.check_budget(sys_.n_symbols, level, budget)
    fld, q = f._maps.fld, m._quad
    words = fld._convert(m._maps.fld, *m._word_table(f.degree, budget))
    rows, rows_den = fld.matmul(words, _transposed(f._table))
    num, den = m._beta_table(level - f.degree, budget)
    betas, beta_den = fld._convert(q, num.reshape(len(num), -1, q.m)[:, symmetric_index(sys_.dim)], den)
    # (A(alpha) F(alpha)^T).ravel() against the full beta-weight of each word w, one column per w
    shadow, den = fld.matmul((rows.reshape(len(rows), -1, fld.m), rows_den), (betas.swapaxes(0, 1), beta_den))
    return shadow.reshape(-1, fld.m), den


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
    if all(isinstance(x, Radical) for x in norms):
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

    Path (a) embeds f from the measure's own packed maps and its cached
    word table of f's depth (:func:`_embed`; a value outside the field of
    the maps moves both into a field that holds it), so the projection
    finds the shallower word tables it reads already built.  It applies
    the process transfer operator k times and forms the projection's
    shadows times the masses (:func:`_shadows`).  Path (b) forms the
    k-step scalar transfer image times the level masses, for every level
    cylinder at once: by the trace formula on the beta-weights of the
    level words when the shift consumes all of f's depth, by a
    common-refinement sum otherwise.  The shadows are moved into the field
    of path (b) extended by the roots they use, which holds both, and each
    path ends in the packed split there (:func:`_components`), with the
    masses of each level read once.  The components of levels 0 ...
    ``level`` are subtracted once: when every coordinate of the gap is 0,
    the result is the backend's zero and nothing is unpacked.  A nonzero
    gap (float rounding, or a broken identity) is unpacked and its largest
    absolute entry returned.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    sys_, n = m.system, m.system.n_symbols
    if f.n_symbols != n:
        raise ValueError("cylinder function and system disagree on the alphabet")
    level = f.depth if level is None else level
    if level < 0:
        raise ValueError("level must be >= 0")
    terms = _terms(f.values)
    g = _embed(sys_, f, terms, m._maps, m._word_table(f.depth, budget))
    for _ in range(k):
        g = transfer_L(g)
    deep, fld_a = max(g.degree, level), g._maps.fld
    shadows, shadows_den = _shadows(m, g, deep, budget)
    fld = m._quad.holding(_radicands_of(terms) | fld_a.used(shadows))
    masses = {}

    def level_masses(j):
        """The masses of level j as a stack of fld, read once."""
        if j not in masses:
            masses[j] = _level_masses(m, fld, j, budget)
        return masses[j]

    comps_a = _components(m, fld, fld._convert(fld_a, shadows, shadows_den), level_masses(deep), deep)

    fv = fld.pack_array(f.values, terms)
    # the transfer image times the level masses, the values the packed split takes
    if k >= f.depth:
        weighted = measure._transfer_values(m, m._beta_table(level, budget), k - f.depth, fld, fv, f.depth, budget)
    else:
        # a word of length big reads (k shifted symbols, level cylinder, rest)
        big = max(f.depth, k + level)
        big_masses, mass_den = level_masses(big)
        num = fld.mul(np.repeat(fv[0], n ** (big - f.depth), axis=0), big_masses)
        weighted = num.reshape(n ** k, n ** level, -1, fld.m).sum(axis=(0, 2)), fv[1] * mass_den
    comps_b = _components(m, fld, weighted, level_masses(level), level)

    rows = len(comps_b[0])  # path (a) splits deeper when g's degree exceeds level
    num, den = fld.sub((comps_a[0][:rows], comps_a[1]), comps_b)
    if not num.any():
        return sys_.field.zero
    return np.abs(fld.unpack_array(num, den)).max()


# -- fresh-innovation subspace ------------------------------------------------


def innovation_residual(f: FiniteProcess) -> float:
    """Max violation of the per-parent freshness constraint.

    A degree-k table is orthogonal to every extended degree-(k-1) table
    exactly when sum_s A_s^T E F(alpha s) vanishes for each parent alpha;
    the return value is the largest Frobenius norm of those sums.
    """
    if f.degree == 0:
        return 0.0
    sums = f._maps.fld.unpack_array(*_freshness_sums(f)[2])
    return float((sums * sums).sum(axis=(1, 2)).max()) ** 0.5


def _freshness_sums(f: FiniteProcess):
    """K_s = A_s^T E (n, d, d), the child blocks X of every parent, and sum_s K_s X_s per parent, as stacks of f's field."""
    fld, n = f._maps.fld, f.system.n_symbols
    k = fld.matmul(_transposed(f._maps.maps), f._maps.energy)
    num, den = f._table
    blocks = num.reshape(-1, n, *num.shape[1:]), den
    sums, sums_den = fld.matmul((k[0][None], k[1]), blocks)
    return k, blocks, fld._reduce(sums.sum(axis=1), sums_den)


def innovation_part(f: FiniteProcess) -> FiniteProcess:
    """Euclidean projection of each parent's child block onto the constraint kernel.

    The constraint sum_s K_s X_s = 0 has Gram matrix G (x) I with
    G = sum_s K_s K_s^T, so the projection is
    X_s - K_s^T G^-1 sum_t K_t X_t: one d x d solve for all parents.
    The exact backend solves the packed G and sums in the field of f
    (:meth:`~kusuoka.multiquad.Multiquad.solve`), the float backend numpy.
    """
    sys_ = f.system
    if f.degree == 0:
        return f
    d, fld = sys_.dim, f._maps.fld
    k, blocks, (sums, sums_den) = _freshness_sums(f)
    kt = _transposed(k)
    gram, gram_den = fld.matmul(k, kt)
    gram = gram.sum(axis=0)[None], gram_den
    rhs = sums.transpose(1, 0, 2, 3).reshape(1, d, -1, fld.m), sums_den  # [Y_0 | Y_1 | ...]
    if sys_.field.exact:
        z, z_den = fld.solve(gram, rhs)
    else:
        z, z_den = fld.pack_array(np.linalg.solve(fld.unpack_array(*gram), fld.unpack_array(*rhs)))
    z = z.reshape(d, -1, d, fld.m).transpose(1, 0, 2, 3)
    out, den = fld.sub(blocks, fld.matmul((kt[0][None], kt[1]), (z[:, None], z_den)))
    return FiniteProcess._packed(sys_, f.degree, f._maps, (out.reshape(f._table[0].shape), den))


def random_innovation_process(system: MatrixSystem, k: int, rng: np.random.Generator) -> FiniteProcess:
    """Gaussian degree-k table projected into the fresh-innovation subspace.

    Float backend only; degree 0 needs no projection (nothing is older).
    """
    if system.field.exact:
        raise ValueError("random tables are drawn on the float backend")
    if k < 0:
        raise ValueError("degree must be >= 0")
    return _random_innovation(system, k, rng, map_field(system.maps, system.energy))


def _random_innovation(system: MatrixSystem, k: int, rng: np.random.Generator, maps: MapField) -> FiniteProcess:
    """:func:`random_innovation_process` on the system's maps as the caller packed them, once for many draws."""
    n, d = system.n_symbols, system.dim
    f = FiniteProcess._packed(system, k, maps, maps.fld.pack_array(rng.standard_normal((n ** k, d, d))))
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
    seeded streams over the maps packed once.  ``trials * n^j_max`` words
    must fit in the budget, checked before any trial is seeded.
    """
    if k < 0 or j_max < k:
        raise ValueError("need 0 <= k <= j_max")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials * system.n_symbols ** j_max > budget:
        raise symbolic.BudgetError(
            f"{trials} trials x {system.n_symbols}^{j_max} words exceeds budget {budget}")
    t2 = spectral.theta2(system, k_max=1, budget=budget)
    c1 = t2.c_values.get(1) if t2.c_values else None
    if not t2.applicable or c1 is None or c1.value is None or c1.value <= 0:
        raise ValueError("decay rate undefined: irreducibility constant c_1 vanishes")

    fsys = matsys.to_float_system(system)
    m = measure.kusuoka_measure(fsys, check=False)

    results = []
    for trial_seed in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.Philox(trial_seed))
        g = _random_innovation(fsys, k, rng, m._maps)
        norm = float(process_norm_sq(g, budget)) ** 0.5
        rep = project_Q(m, g, up_to_level=j_max, budget=budget)
        results.append([float(rep.component_norm_sq(j)) ** 0.5 / norm for j in range(k, j_max + 1)])

    rows = []
    for idx, j in enumerate(range(k, j_max + 1)):
        worst = max(r[idx] for r in results)
        bound = t2.lemma_value ** (j - k)
        rows.append(QDecayRow(j, worst, bound, worst <= bound + 1e-12))
    return rows
