from fractions import Fraction

import pytest

from kusuoka import matsys, measure
from kusuoka.exactnum import Radical
from kusuoka.gasket import generate_system
from kusuoka.linalg import FLOAT


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
