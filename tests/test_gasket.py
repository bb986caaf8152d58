"""Triangle-lattice graphs, Dirichlet extension, and generated map families."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kusuoka.exactnum import Radical, format_exact
from kusuoka.gasket import (
    basis_rotation,
    build_graph,
    cell_restrictions,
    generate_system,
    harmonic_basis,
    harmonic_extension,
    template_energy,
)
from kusuoka.linalg import FLOAT, frobenius_sq, identity, EXACT
from kusuoka.matsys import sg_system, validate
from kusuoka.multiquad import solve
from kusuoka.measure import kusuoka_measure, nu
from kusuoka.spectral import theta1
from kusuoka.symbolic import all_words


def test_graph_counts():
    g2 = build_graph(2)
    assert len(g2.vertices) == 6
    assert len(g2.boundary) == 3
    assert len(g2.cells) == 3
    assert len(g2.edges) == 9
    g3 = build_graph(3)
    assert len(g3.vertices) == 10
    assert len(g3.cells) == 6
    g5 = build_graph(5)
    assert len(g5.vertices) == 21
    assert len(g5.cells) == 15


def test_graph_corner_cells_lead():
    g = build_graph(3)
    bases = [g.vertices[c[0]] for c in g.cells]
    assert bases[:3] == [(0, 0), (2, 0), (0, 2)]
    assert bases[3:] == sorted(bases[3:])


def test_graph_rejects_small_n():
    with pytest.raises(ValueError):
        build_graph(1)


def test_harmonic_basis_orthonormal():
    basis = harmonic_basis()
    hs = (basis.h1, basis.h2)
    for i in range(2):
        assert sum(hs[i]).is_zero()
        for j in range(2):
            want = Radical(1 if i == j else 0)
            assert (template_energy(hs[i], hs[j]) - want).is_zero()


def test_template_energy_kills_constants():
    ones = [Radical(1)] * 3
    u = [Radical(3), Radical(-1), Radical(2)]
    assert template_energy(ones, u).is_zero()


def test_extension_rows_and_corners():
    g = build_graph(2)
    ext = harmonic_extension(g)
    for b, col in zip(g.boundary, range(3)):
        for j in range(3):
            want = Radical(1 if j == col else 0)
            assert (ext[b, j] - want).is_zero()
    for i in range(len(g.vertices)):
        total = ext[i, 0] + ext[i, 1] + ext[i, 2]
        assert (total - Radical(1)).is_zero()


def test_extension_one_fifth_two_fifths_rule():
    # midpoint values of the corner-j harmonic function: 2/5 toward j, 1/5 across
    g = build_graph(2)
    ext = harmonic_extension(g)
    index = {v: i for i, v in enumerate(g.vertices)}
    mid_01 = index[(1, 0)]  # between corners (0,0) and (2,0)
    assert ext[mid_01, 0] == Fraction(2, 5)
    assert ext[mid_01, 1] == Fraction(2, 5)
    assert ext[mid_01, 2] == Fraction(1, 5)
    mid_12 = index[(1, 1)]
    assert ext[mid_12, 0] == Fraction(1, 5)


def test_extension_is_graph_harmonic():
    # Laplacian rows at interior vertices vanish on every column
    g = build_graph(3)
    ext = harmonic_extension(g)
    nv = len(g.vertices)
    lap = np.zeros((nv, nv), dtype=object)
    lap[:] = Radical(0)
    for i, j in g.edges:
        lap[i, j] = lap[i, j] - Radical(1)
        lap[j, i] = lap[j, i] - Radical(1)
        lap[i, i] = lap[i, i] + Radical(1)
        lap[j, j] = lap[j, j] + Radical(1)
    residual = lap @ ext
    for i in range(nv):
        if i in g.boundary:
            continue
        for col in range(3):
            assert residual[i, col].is_zero()


def test_extension_denominators_stay_small():
    # n = 3 solves exactly in fifteenths; a change would signal a solver slip
    g = build_graph(3)
    ext = harmonic_extension(g)
    for i in range(len(g.vertices)):
        for j in range(3):
            x = ext[i, j]
            assert x.is_rational()
            assert 15 % x.as_fraction().denominator == 0


def test_raw_restriction_values():
    g = build_graph(2)
    raws = cell_restrictions(g, harmonic_basis())
    a0 = raws[0]
    assert a0[0, 0] == Fraction(3, 5)
    assert a0[1, 1] == Fraction(1, 5)
    assert a0[0, 1].is_zero()
    assert a0[1, 0].is_zero()


def test_raw_cells_are_rotation_conjugate():
    g = build_graph(2)
    raws = cell_restrictions(g, harmonic_basis())
    rot = basis_rotation()
    rot_inv = solve(rot, identity(2, EXACT))
    for s in range(2):
        want = rot @ raws[s] @ rot_inv
        assert frobenius_sq(raws[s + 1] - want).is_zero()


def test_basis_rotation_is_orthogonal():
    rot = basis_rotation()
    prod = rot.T @ rot
    assert (prod[0, 0] - Radical(1)).is_zero()
    assert prod[0, 1].is_zero()
    det = rot[0, 0] * rot[1, 1] - rot[0, 1] * rot[1, 0]
    assert (det - Radical(1)).is_zero()


def test_generated_two_cell_system_matches_builtin(sg):
    gen = generate_system(2)
    report = validate(gen)
    assert report.ok
    assert report.invariance_residual == 0.0
    m_gen = kusuoka_measure(gen)
    m_sg = kusuoka_measure(sg)
    for k in range(4):
        for w in all_words(3, k):
            assert (nu(m_gen, w) - nu(m_sg, w)).is_zero()


def test_generated_systems_validate(sg3):
    for sys_ in (sg3, generate_system(4)):
        report = validate(sys_)
        assert report.ok
        assert report.invariance_residual == 0.0
        assert report.normalization_residual == 0.0


def test_generated_cell_masses_by_symmetry_class(sg3):
    # three corner cells share one mass, three middle cells another
    m = kusuoka_measure(sg3)
    masses = [nu(m, (s,)) for s in range(sg3.n_symbols)]
    assert masses[0] == Fraction(5, 21)
    assert masses[1] == masses[0]
    assert masses[2] == masses[0]
    assert masses[3] == Fraction(2, 21)
    assert masses[4] == masses[3]
    assert masses[5] == masses[3]


def test_generated_float_backend():
    sys_ = generate_system(3, FLOAT)
    assert validate(sys_).ok
    assert theta1(sys_).value == pytest.approx(5 / 7, abs=1e-9)


def test_generated_corner_cells_rotation_conjugate():
    rot = basis_rotation()
    rot_inv = solve(rot, identity(2, EXACT))
    for n in range(2, 6):
        sys_ = generate_system(n)
        corners = sys_.maps[:3]
        for s in range(2):
            want = rot @ corners[s] @ rot_inv
            assert frobenius_sq(corners[s + 1] - want).is_zero()


def test_generate_rejects_out_of_range():
    with pytest.raises(ValueError):
        generate_system(1)
    with pytest.raises(ValueError):
        generate_system(7)


GOLDEN = Path(__file__).parent / "golden"
_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
               "__rtruediv__", "_inverse")


def _spy_radical_arithmetic(monkeypatch) -> list:
    """Record every Radical sum, difference, product, division and inverse from here on."""
    calls = []
    for name in _ARITHMETIC:
        orig = getattr(Radical, name)
        monkeypatch.setattr(Radical, name, lambda *a, orig=orig, name=name: calls.append(name) or orig(*a))
    return calls


@pytest.mark.parametrize("n", range(2, 7))
def test_generated_systems_match_golden(n):
    """Exact maps and weight (format_exact) and the float reprs, as the Radical pipeline produced them."""
    want = json.loads((GOLDEN / "gasket-systems.json").read_text(encoding="utf-8"))[str(n)]
    exact, fl = generate_system(n), generate_system(n, FLOAT)
    assert [[[format_exact(x) for x in row] for row in a] for a in exact.maps] == want["maps"]
    assert [[format_exact(x) for x in row] for row in exact.energy] == want["energy"]
    assert [repr(a.tolist()) for a in fl.maps] == want["float_maps"]
    assert repr(fl.energy.tolist()) == want["float_energy"]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_cell_restrictions_take_no_radical_arithmetic(n, monkeypatch):
    """Every cell's B^T L_3 ext[s] B is formed on packed coordinates; Radicals are only built on unpacking."""
    g, basis = build_graph(n), harmonic_basis()
    want = cell_restrictions(g, basis)
    calls = _spy_radical_arithmetic(monkeypatch)
    got = cell_restrictions(g, basis)
    assert calls == []
    assert all((a == b).all() for a, b in zip(got, want))


def test_cell_restrictions_check_the_basis():
    basis = harmonic_basis()
    with pytest.raises(ValueError, match="not energy-orthonormal"):
        cell_restrictions(build_graph(2), type(basis)(basis.h1, 2 * basis.h2))


def test_template_energy_is_the_pairwise_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u, v = ([Radical(Fraction(int(x), 7)) for x in rng.integers(-9, 10, 3)] for _ in range(2))
        want = sum((u[i] - u[j]) * (v[i] - v[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
        assert template_energy(u, v) == want
