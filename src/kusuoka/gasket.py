"""Restriction systems for the triangle-subdivision gasket family.

The level-1 graph of the n-fold subdivision gasket has a vertex at every
lattice point (a, b) with a + b <= n and one unit-conductance triangle of
edges per upward cell.  Harmonic extension from the three outer corners,
restricted to a cell and written in a fixed orthonormal basis of harmonic
functions modulo constants, yields one raw 2 x 2 matrix per cell; Kusuoka
renormalization of those raws produces a validated system whose measure and
contraction constants downstream modules consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg, spectral
from .exactnum import Radical, sqrt_fraction
from .linalg import EXACT
from .matsys import MatrixSystem
from .multiquad import field_of

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
    """Unit-conductance 3-point energy sum_{i<j} (u_i - u_j)(v_i - v_j)."""
    return (
        (u[0] - u[1]) * (v[0] - v[1])
        + (u[0] - u[2]) * (v[0] - v[2])
        + (u[1] - u[2]) * (v[1] - v[2])
    )


def harmonic_extension(g: GasketGraph) -> np.ndarray:
    """Exact corner-to-everywhere extension matrix of the graph Dirichlet problem.

    Column j is the harmonic function with value 1 at corner j and 0 at the
    other two corners; rows follow vertex order, so boundary rows are unit
    vectors and every row sums to 1.  The integer Laplacian's interior block
    is solved by :meth:`~kusuoka.multiquad.Multiquad.solve` over Q.
    """
    nv = len(g.vertices)
    lap = np.zeros((nv, nv), dtype=object)
    for i, j in g.edges:
        lap[i, j] -= 1
        lap[j, i] -= 1
        lap[i, i] += 1
        lap[j, j] += 1
    interior = [i for i in range(nv) if i not in g.boundary]
    rationals = field_of(frozenset(), True)
    lap_ii = lap[np.ix_(interior, interior)][None, ..., None]
    rhs = -lap[np.ix_(interior, g.boundary)][None, ..., None]
    sol, den = rationals.solve((lap_ii, 1), (rhs, 1))
    ext = np.zeros((nv, 3, 1), dtype=object)
    ext[list(g.boundary), range(3)] = den
    ext[interior] = sol[0]
    return rationals.unpack_array(ext, den)


def cell_restrictions(g: GasketGraph, basis: HarmonicBasis) -> list:
    """One raw matrix per cell: basis coefficients -> restricted coefficients.

    The extension of x1 h1 + x2 h2 restricted to a cell is again a 3-point
    vertex vector; pairing it with the basis under the template energy reads
    off its coefficients modulo constants.  Column j of cell s is therefore
    the coefficient pair of h_j's restriction to s.
    """
    ext = harmonic_extension(g)
    hs = (basis.h1, basis.h2)
    for i in range(2):
        for j in range(2):
            gram = template_energy(hs[i], hs[j])
            want = Radical(1 if i == j else 0)
            if not (gram - want).is_zero():
                raise ValueError("basis is not energy-orthonormal")
    full = [ext @ h for h in hs]
    out = []
    for cell in g.cells:
        raw = linalg.zeros((2, 2), EXACT)
        for j in range(2):
            r = [full[j][cell[0]], full[j][cell[1]], full[j][cell[2]]]
            for i in range(2):
                raw[i, j] = template_energy(r, hs[i])
        out.append(raw)
    return out


def basis_rotation() -> np.ndarray:
    """Coefficient matrix of the 120-degree corner rotation 0 -> 1 -> 2 -> 0.

    Sends a harmonic boundary vector u to u composed with the inverse corner
    permutation, expressed in the fixed basis; orthogonal, determinant 1.
    """
    basis = harmonic_basis()
    hs = (basis.h1, basis.h2)
    rot = linalg.zeros((2, 2), EXACT)
    for j in range(2):
        r = [hs[j][2], hs[j][0], hs[j][1]]
        for i in range(2):
            rot[i, j] = template_energy(r, hs[i])
    return rot


def generate_system(n: int, backend: str = EXACT) -> MatrixSystem:
    """Full pipeline: graph, Dirichlet solve, raw restrictions, renormalization.

    Alphabet symbols are the cell indices as strings.  Capped at n = 6.
    Neither the Dirichlet solve nor the word tables force the cap: with it
    lifted, sg7 generates, validates and certifies theta1, c_1 and c_2 in
    under a second, and its theta2 spends about 1 s in the bounded trial
    division of two radicands.  From n = 8 on, ``renormalize`` raises: the
    Perron eigenvalue is a rational root of a cubic with coefficients past
    100 bits, which the float candidate search of ``linalg.rational_roots``
    does not find.
    """
    if not 2 <= n <= 6:
        raise ValueError("subdivision parameter must lie in 2..6")
    g = build_graph(n)
    raws = cell_restrictions(g, harmonic_basis())
    alphabet = tuple(str(i) for i in range(len(raws)))
    return spectral.renormalize(raws, backend=backend, alphabet=alphabet)
