from fractions import Fraction

import numpy as np
import pytest

from kusuoka import matsys, measure, procspace, symbolic
from kusuoka.exactnum import Radical
from kusuoka.gasket import generate_system
from kusuoka.linalg import EXACT, FLOAT, as_matrix
from kusuoka.symbolic import word_matrix


@pytest.fixture(scope="session")
def sg():
    return matsys.sg_system()


@pytest.fixture(scope="session")
def sg_float():
    return matsys.sg_system(FLOAT)


@pytest.fixture(scope="session")
def sg3():
    return generate_system(3)


@pytest.fixture(scope="session")
def bern():
    return matsys.bernoulli_system([Fraction(1, 4), Fraction(3, 4)])


def two_radicand_system():
    """Psi needs sqrt(15) and sqrt(30), so the kernel's field is Q(sqrt 15, sqrt 30)."""
    maps = [
        [[Radical.root(Fraction(1, 3)), 0], [0, Radical.root(Fraction(1, 5))]],
        [[Radical.root(Fraction(2, 3)), 0], [0, Radical.root(Fraction(4, 5))]],
    ]
    energy = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    return matsys.make_system(("a", "b"), [as_matrix(a, EXACT) for a in maps], as_matrix(energy, EXACT), EXACT)


@pytest.fixture(scope="session")
def two_radicand():
    return two_radicand_system()


@pytest.fixture(scope="session")
def sg_measure(sg):
    return measure.kusuoka_measure(sg)


@pytest.fixture(scope="session")
def sg_float_measure(sg_float):
    return measure.kusuoka_measure(sg_float)


@pytest.fixture(scope="session")
def bern_measure(bern):
    return measure.kusuoka_measure(bern)


def laplace_det(m) -> Radical:
    """The determinant of a square exact matrix by cofactor expansion along the first row.

    The reference the packed elimination is tested against: no pivoting,
    no division, one signed product per term of the expansion.
    """
    rows = [[Radical(x) for x in row] for row in m]
    if not rows:
        return Radical(1)
    total = Radical(0)
    for j, x in enumerate(rows[0]):
        if not x.is_zero():
            term = x * laplace_det([row[:j] + row[j + 1:] for row in rows[1:]])
            total = total - term if j % 2 else total + term
    return total


def laplace_minors(m) -> list:
    """The leading principal minors of a square exact matrix, each by :func:`laplace_det`."""
    return [laplace_det(m[: k + 1, : k + 1]) for k in range(len(m))]


# -- word-matrix references for the packed single-word queries of measure -----


def nu_reference(m, word):
    """nu(word) = Tr(A(word)^T E A(word)) from the word matrix, in the backend's scalars."""
    a = word_matrix(m.system, word)
    return np.trace(a.T @ m.system.energy @ a)


def g_reference(m, prefix):
    """nu(prefix) / nu(prefix[1:]) from two word matrices."""
    return nu_reference(m, prefix) / nu_reference(m, prefix[1:])


def h_reference(m, prefix):
    """A(prefix)^T E A(prefix) over its trace, from the word matrix."""
    a = word_matrix(m.system, prefix)
    h = a.T @ m.system.energy @ a
    return h / np.trace(h)


def correlation_gaps_reference(m, alpha, beta, nmax):
    """The correlation gaps at separations 0 ... nmax from the word matrices of alpha and beta.

    P(alpha) and the beta-weight are packed from word-matrix products, the
    beta-weight advances by the kernel's M*, and nu(alpha) nu(beta) is taken
    in the backend's scalars.
    """
    q, sys_ = m._quad, m.system
    a, b = word_matrix(sys_, alpha), word_matrix(sys_, beta)
    p_alpha, weight = q.pack(a @ a.T), q.pack(b.T @ sys_.energy @ b)
    product = nu_reference(m, alpha) * nu_reference(m, beta)
    gaps = []
    for n in range(nmax + 1):
        if n > 0:
            weight = q.apply(weight, q.m_star_sum)
        num, den = q.pair(p_alpha, weight)
        gaps.append(q.unpack(num[0], den)[0] - product)
    return gaps


# -- the dilation residual as the component route formed it --------------------


def dilation_reference(m, f, k, level=None, budget=symbolic.DEFAULT_BUDGET):
    """The dilation residual by unpacked martingale representations, the reference for the packed comparison.

    Path (a) is ``embed_phi``, k transfers and ``project_Q``; path (b) is the
    k-step transfer image times the level masses, through ``_split``.  The
    residual is the largest |a.values - b.values| over the components of
    levels 0 ... ``level``, both sides unpacked.
    """
    sys_, n = m.system, m.system.n_symbols
    level = f.depth if level is None else level
    g = procspace.embed_phi(sys_, f, budget)
    for _ in range(k):
        g = procspace.transfer_L(g)
    rep_a = procspace.project_Q(m, g, up_to_level=level, budget=budget)
    fld, fv = m._quad.pack_holding(f.values)
    if k >= f.depth:
        weighted = measure._transfer_values(m, m._beta_table(level, budget), k - f.depth, fld, fv, f.depth, budget)
    else:
        big = max(f.depth, k + level)
        masses, mass_den = procspace._level_masses(m, fld, big, budget)
        num = fld.mul(np.repeat(fv[0], n ** (big - f.depth), axis=0), masses)
        weighted = num.reshape(n ** k, n ** level, -1, fld.m).sum(axis=(0, 2)), fv[1] * mass_den
    rep_b = procspace._split(m, fld, weighted, procspace._level_masses(m, fld, level, budget), level)
    gaps = [a.values - b.values for a, b in zip(rep_a.components, rep_b.components)]
    return np.abs(np.concatenate(gaps)).max()
