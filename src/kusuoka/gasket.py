"""Restriction systems for the triangle-subdivision gasket family.

The level-1 graph of the n-fold subdivision gasket has a vertex at every
lattice point (a, b) with a + b <= n and one unit-conductance triangle of
edges per upward cell.  Harmonic extension from the three outer corners,
restricted to a cell and written in a fixed orthonormal basis of harmonic
functions modulo constants, yields one raw 2 x 2 matrix per cell; Kusuoka
renormalization of those raws produces a validated system whose measure and
contraction constants downstream modules consume.  The Dirichlet solve and
the raw matrices are packed integer stacks until a result is unpacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg, spectral
from .exactnum import Radical, sqrt_fraction
from .linalg import EXACT
from .matsys import MatrixSystem
from .multiquad import _smallest_field, field_of

_L3 = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=object)  # the template energy's Laplacian
_RATIONALS = field_of(frozenset(), True)

__all__ = [
    "GasketGraph",
    "HarmonicBasis",
    "build_graph",
    "harmonic_basis",
    "template_energy",
    "harmonic_extension",
    "cell_restrictions",
    "basis_rotation",
    "generate_system",
]


@dataclass(frozen=True)
class GasketGraph:
    """Level-1 gasket graph in lattice coordinates.

    ``vertices`` are (a, b) pairs in lexicographic order; ``boundary`` holds
    the indices of the corners (0,0), (n,0), (0,n) in that corner order;
    ``cells`` lists each upward cell's three corner indices, base corner
    first, then the two neighbors counterclockwise.  The three cells touching
    the outer corners come first (in corner order), the rest follow
    lexicographically; this fixes the alphabet of the generated system.
    """

    n: int
    vertices: tuple
    edges: tuple
    boundary: tuple
    cells: tuple


def build_graph(n: int) -> GasketGraph:
    if n < 2:
        raise ValueError("subdivision parameter must be >= 2")
    vertices = tuple(
        (a, b) for a in range(n + 1) for b in range(n + 1 - a)
    )
    index = {v: i for i, v in enumerate(vertices)}
    boundary = (index[(0, 0)], index[(n, 0)], index[(0, n)])

    corner_bases = [(0, 0), (n - 1, 0), (0, n - 1)]
    other_bases = sorted(
        (a, b)
        for a in range(n)
        for b in range(n - a)
        if (a, b) not in corner_bases
    )
    cells = []
    for a, b in corner_bases + other_bases:
        cells.append((index[(a, b)], index[(a + 1, b)], index[(a, b + 1)]))

    edges = []
    for c0, c1, c2 in cells:
        edges.extend(((min(c0, c1), max(c0, c1)),
                      (min(c0, c2), max(c0, c2)),
                      (min(c1, c2), max(c1, c2))))
    return GasketGraph(n, vertices, tuple(edges), boundary, tuple(cells))


@dataclass(frozen=True)
class HarmonicBasis:
    """Orthonormal pair of corner-value vectors, orthogonal to constants."""

    h1: np.ndarray
    h2: np.ndarray


def harmonic_basis() -> HarmonicBasis:
    r2 = sqrt_fraction(2)
    exact = linalg.FIELDS[EXACT]
    h1 = exact.array(
        [r2 * Radical(Fraction(1, 3)), r2 * Radical(Fraction(-1, 6)), r2 * Radical(Fraction(-1, 6))]
    )
    inv_r6 = Radical(1) / sqrt_fraction(6)
    h2 = exact.array([Radical(0), inv_r6, -inv_r6])
    return HarmonicBasis(h1, h2)


def template_energy(u, v):
    """Unit-conductance 3-point energy sum_{i<j} (u_i - u_j)(v_i - v_j), that is u^T L_3 v."""
    return np.asarray(u) @ _L3 @ np.asarray(v)


def _extension(g: GasketGraph):
    """:func:`harmonic_extension` as a stack (num (nv, 3, 1), den) over Q."""
    nv = len(g.vertices)
    adj = np.zeros((nv, nv), dtype=object)
    np.add.at(adj, tuple(np.array(g.edges).T), 1)
    lap = np.diag((adj + adj.T).sum(axis=1)) - adj - adj.T
    interior = [i for i in range(nv) if i not in g.boundary]
    lap_ii = lap[np.ix_(interior, interior)][None, ..., None]
    rhs = -lap[np.ix_(interior, g.boundary)][None, ..., None]
    sol, den = _RATIONALS.solve((lap_ii, 1), (rhs, 1))
    ext = np.zeros((nv, 3, 1), dtype=object)
    ext[list(g.boundary), range(3)] = den
    ext[interior] = sol[0]
    return ext, den


def harmonic_extension(g: GasketGraph) -> np.ndarray:
    """Exact corner-to-everywhere extension matrix of the graph Dirichlet problem.

    Column j is the harmonic function with value 1 at corner j and 0 at the
    other two corners; rows follow vertex order, so boundary rows are unit
    vectors and every row sums to 1.  The integer Laplacian's interior block
    is solved by :meth:`~kusuoka.multiquad.Multiquad.solve` over Q.
    """
    return _RATIONALS.unpack_array(*_extension(g))


def _restrictions(basis: HarmonicBasis, x, den) -> np.ndarray:
    """B^T L_3 X B, B = [h1 h2], for a stack X (N, 3, 3, 1) over den of rational 3 x 3 matrices, as (N, 2, 2).

    Two stacked products on integer coordinates in the field of B; ``Radical``s
    are built only on unpacking.  ValueError unless B^T L_3 B = I.
    """
    fld, (b, l3) = _smallest_field(np.stack([basis.h1, basis.h2], axis=1), _L3)
    lb = fld.matmul(l3, b)
    lb_t = lb[0].swapaxes(0, 1), lb[1]  # B^T L_3
    gram, gram_den = fld.matmul(lb_t, b)
    if gram_den != 1 or gram[..., 1:].any() or (gram[..., 0] != np.eye(2, dtype=int)).any():
        raise ValueError("basis is not energy-orthonormal")
    return fld.unpack_array(*fld.matmul(fld.matmul(lb_t, fld._convert(_RATIONALS, x, den)), b))


def cell_restrictions(g: GasketGraph, basis: HarmonicBasis) -> list:
    """One raw matrix per cell: basis coefficients -> restricted coefficients.

    The extension of x1 h1 + x2 h2 restricted to a cell is again a 3-point
    vertex vector; pairing it with the basis under the template energy reads
    off its coefficients modulo constants.  With B = [h1 h2], cell s is
    therefore B^T L_3 ext[s] B, ext[s] the extension's rows at the cell's
    corners, and every cell is formed at once (:func:`_restrictions`).
    """
    ext, den = _extension(g)
    return list(_restrictions(basis, ext[np.array(g.cells)], den))


def basis_rotation() -> np.ndarray:
    """Coefficient matrix of the 120-degree corner rotation 0 -> 1 -> 2 -> 0.

    Sends a harmonic boundary vector u to u composed with the inverse corner
    permutation, B^T L_3 P B in the fixed basis; orthogonal, determinant 1.
    """
    perm = np.zeros((1, 3, 3, 1), dtype=object)
    perm[0, [0, 1, 2], [2, 0, 1]] = 1  # (P u)_i = u_(i - 1)
    return _restrictions(harmonic_basis(), perm, 1)[0]


def generate_system(n: int, backend: str = EXACT) -> MatrixSystem:
    """Full pipeline: graph, Dirichlet solve, raw restrictions, renormalization.

    Alphabet symbols are the cell indices as strings.  Capped at n = 6.
    Generation is cheap: warm, sg3 takes about 4 ms and sg6 about 7 ms on a
    2 vCPU Xeon, most of it in renormalization's one Perron root search and
    small eliminations.  Neither it nor the word tables force the cap: with
    it lifted, sg7 generates in about 8 ms, validates and certifies theta1,
    c_1 and c_2 in under a second, and its theta2 spends about 1 s in the
    bounded trial division of two radicands.  From n = 8 on,
    ``renormalize`` raises: the Perron eigenvalue is a rational root of a
    cubic with coefficients past 100 bits, which the float candidate search
    of ``linalg.rational_roots`` does not find.
    """
    if not 2 <= n <= 6:
        raise ValueError("subdivision parameter must lie in 2..6")
    g = build_graph(n)
    raws = cell_restrictions(g, harmonic_basis())
    alphabet = tuple(str(i) for i in range(len(raws)))
    return spectral.renormalize(raws, backend=backend, alphabet=alphabet)
