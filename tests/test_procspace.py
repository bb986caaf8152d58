"""Matrix-valued process tables: shift, transfer, embedding, martingale splits."""

from fractions import Fraction

import numpy as np
import pytest

from kusuoka import measure, multiquad, procspace, symbolic
from kusuoka.exactnum import Radical
from kusuoka.gasket import generate_system
from kusuoka.linalg import EXACT, as_matrix, frobenius_sq
from kusuoka.matsys import bernoulli_system, sg_system
from kusuoka.measure import kusuoka_measure
from kusuoka.procspace import (
    FiniteProcess,
    constant_process,
    dilation_check,
    embed_phi,
    extend,
    gamma_norm,
    identity_process,
    innovation_part,
    innovation_residual,
    martingale_decompose,
    process_inner,
    process_norm_sq,
    project_Q,
    q_decay_check,
    random_innovation_process,
    shift_T,
    transfer_L,
)
from kusuoka.spectral import renormalize
from kusuoka.symbolic import BudgetError, all_words, cylinder_from_values, indicator, word_index, word_matrix
from conftest import dilation_reference, nu_reference, two_radicand_system


def _sigma_z():
    return as_matrix([[Fraction(1), 0], [0, Fraction(-1)]], EXACT)


def _random_process(system, rng, degree):
    vals = []
    for _ in range(system.n_symbols**degree):
        raw = rng.integers(-4, 5, size=(system.dim, system.dim))
        vals.append(as_matrix([[Fraction(int(x)) for x in row] for row in raw], EXACT))
    return FiniteProcess(system, degree, tuple(vals))


def test_table_length_checked(sg):
    with pytest.raises(ValueError):
        FiniteProcess(sg, 1, (sg.energy,))


def test_table_entries_must_be_d_by_d(sg, sg_float):
    three = as_matrix([[Fraction(1), 0, 0], [0, 1, 0], [0, 0, 1]], EXACT)
    with pytest.raises(ValueError):
        FiniteProcess(sg, 0, (three,))
    with pytest.raises(ValueError):
        FiniteProcess(sg_float, 1, [np.zeros((2, 3))] * 3)
    with pytest.raises(ValueError):
        FiniteProcess(sg_float, 1, [np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 3))])


def test_table_is_one_read_only_array(sg):
    f = extend(identity_process(sg), 2)
    assert isinstance(f.values, np.ndarray) and f.values.shape == (9, 2, 2)
    assert f.values.dtype == object and not f.values.flags.writeable


def test_extension_rule(sg):
    f = constant_process(sg, _sigma_z())
    g = extend(f, 2)
    assert g.degree == 2
    for i, w in enumerate(all_words(3, 2)):
        want = sg.maps[w[1]] @ sg.maps[w[0]] @ _sigma_z()
        assert frobenius_sq(g.values[i] - want).is_zero()


def test_inner_product_level_independent(sg):
    rng = np.random.default_rng(5)
    f = _random_process(sg, rng, 1)
    base = process_inner(f, f)
    deeper = process_inner(extend(f, 2), extend(f, 1))
    assert (base - deeper).is_zero()


def test_shift_is_isometric(sg):
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = _random_process(sg, rng, 1)
        g = _random_process(sg, rng, 2)
        lhs = process_inner(shift_T(f), shift_T(extend(g, 0)))
        # degrees differ after the shift; extension handles the mismatch
        rhs = process_inner(f, g)
        assert (lhs - rhs).is_zero()
        assert (process_norm_sq(shift_T(f)) - process_norm_sq(f)).is_zero()


def test_transfer_is_adjoint_of_shift(sg):
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = _random_process(sg, rng, 1)
        g = _random_process(sg, rng, 2)
        lhs = process_inner(shift_T(f), g)
        rhs = process_inner(f, transfer_L(g))
        assert (lhs - rhs).is_zero()


def test_transfer_inverts_shift(sg):
    rng = np.random.default_rng(10)
    f = _random_process(sg, rng, 2)
    back = transfer_L(shift_T(f))
    for a, b in zip(back.values, f.values):
        assert frobenius_sq(a - b).is_zero()


def test_identity_process_is_transfer_fixed(sg):
    ident = identity_process(sg)
    out = transfer_L(ident)
    assert out.degree == 0
    assert frobenius_sq(out.values[0] - ident.values[0]).is_zero()


def test_tracefree_constant_is_eigendirection(sg):
    f = constant_process(sg, _sigma_z())
    out = transfer_L(f)
    want = Radical(Fraction(4, 5)) * _sigma_z()
    assert frobenius_sq(out.values[0] - want).is_zero()


def test_transfer_contracts_norm(sg):
    rng = np.random.default_rng(12)
    for _ in range(10):
        f = _random_process(sg, rng, 2)
        assert float(process_norm_sq(transfer_L(f))) <= float(process_norm_sq(f)) + 1e-9


def test_embedding_is_isometric(sg, sg_measure):
    rng = np.random.default_rng(13)
    vals = [Fraction(int(x), 3) for x in rng.integers(-6, 7, size=9)]
    f = cylinder_from_values(sg, 2, vals)
    ff = embed_phi(sg, f)
    direct = sum(
        (v * v * w for v, w in zip(f.values, sg_measure.level_nu(2))), Radical(0)
    )
    assert (process_norm_sq(ff) - direct).is_zero()


def test_embedding_intertwines_shift(sg):
    # T(Phi f) = Phi(f pulled back one level) on each symbol block
    f = indicator(sg, (0,))
    lhs = shift_T(embed_phi(sg, f))
    for i, w in enumerate(all_words(3, 2)):
        a = sg.maps[w[1]] @ sg.maps[w[0]]
        want = a if w[1] == 0 else 0 * a
        assert frobenius_sq(lhs.values[i] - want).is_zero()


def test_projection_composed_with_embedding_is_decomposition(sg, sg_measure):
    rng = np.random.default_rng(14)
    vals = [Fraction(int(x), 5) for x in rng.integers(-9, 10, size=27)]
    f = cylinder_from_values(sg, 3, vals)
    rep_direct = martingale_decompose(sg_measure, f)
    rep_via = project_Q(sg_measure, embed_phi(sg, f))
    for a, b in zip(rep_direct.components, rep_via.components):
        assert all((x - y).is_zero() for x, y in zip(a.values, b.values))


def _projection_oracle(m, f, level):
    """q(alpha) = Tr(A(alpha)^T E F(alpha)) / nu(alpha), word by word on the extended table."""
    sys_ = m.system
    ext = extend(f, level - f.degree)
    return [np.trace(word_matrix(sys_, w).T @ sys_.energy @ v) / nu_reference(m, w)
            for w, v in zip(all_words(sys_.n_symbols, level), ext.values)]


# integer raw maps whose renormalized weight is not diagonal
_RAW_BASE = (((2, -2), (-2, 3)), ((2, 2), (0, 3)), ((-3, -2), (0, -3)))


@pytest.mark.parametrize("build, cases", [
    (sg_system, [(deg, deg + extra) for deg in range(3) for extra in range(3)]),
    (lambda: generate_system(3), [(0, 0), (0, 2), (1, 1), (1, 3), (2, 2)]),
    (lambda: renormalize([[list(r) for r in a] for a in _RAW_BASE], EXACT),
     [(0, 0), (0, 2), (1, 2), (2, 2), (2, 4)]),
], ids=["sg", "sg3", "raw"])
def test_project_q_equals_word_oracle(build, cases):
    system = build()
    m = kusuoka_measure(system)
    rng = np.random.default_rng(system.n_symbols)
    for degree, level in cases:
        f = _random_process(system, rng, degree)
        got = project_Q(m, f, up_to_level=level).function().values
        assert list(got) == _projection_oracle(m, f, level), (degree, level)


def test_project_q_of_a_process_outside_the_field_of_the_maps(sg, sg_measure):
    # sqrt(7) lies outside Q(sqrt 3, sqrt 5): the shadow is still exact
    f = _random_process(sg, np.random.default_rng(8), 1)
    vals = list(f.values)
    vals[1] = vals[1] + Radical.root(7) * _sigma_z()
    f = FiniteProcess(sg, 1, tuple(vals))
    got = project_Q(sg_measure, f, up_to_level=3).function().values
    assert list(got) == _projection_oracle(sg_measure, f, 3)


def test_project_q_float_equals_word_oracle(sg_float, sg_float_measure):
    rng = np.random.default_rng(9)
    for degree, level in [(0, 2), (1, 1), (1, 4), (2, 3)]:
        f = FiniteProcess(sg_float, degree, tuple(rng.standard_normal((3**degree, 2, 2))))
        got = project_Q(sg_float_measure, f, up_to_level=level).function().values
        want = _projection_oracle(sg_float_measure, f, level)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def _radical_split(m, values, depth):
    """Martingale components as the unpacked route split them: level averages in Radical arithmetic, divided by nu."""
    n = m.system.n_symbols
    levels = [None] * (depth + 1)
    levels[depth] = np.asarray(values)
    for j in range(depth, 0, -1):
        mass = (levels[j] * m._nu_array(j)).reshape(-1, n).sum(axis=1)
        levels[j - 1] = mass / m._nu_array(j - 1)
    return [list(levels[0])] + [list(levels[j] - np.repeat(levels[j - 1], n)) for j in range(1, depth + 1)]


_SPLIT_SYSTEMS = {
    "sg": sg_system,
    "sg3": lambda: generate_system(3),
    "bernoulli": lambda: bernoulli_system([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]),
}


@pytest.mark.parametrize("name", sorted(_SPLIT_SYSTEMS))
def test_packed_split_equals_the_radical_split(name):
    """martingale_decompose and project_Q give the components the Radical level averages give."""
    system = _SPLIT_SYSTEMS[name]()
    m, n = kusuoka_measure(system), system.n_symbols
    rng = np.random.default_rng(n)
    for depth in (0, 1, 3):
        vals = [Fraction(int(x), 7) for x in rng.integers(-9, 10, n ** depth)]
        vals[-1] = vals[-1] + Radical.root(7)  # a radicand outside the kernel's field
        f = cylinder_from_values(system, depth, vals)
        got = [list(c.values) for c in martingale_decompose(m, f).components]
        assert got == _radical_split(m, f.values, depth), depth
    if system.dim == 2:
        for degree, level in ((0, 2), (1, 3)):
            proc = _random_process(system, rng, degree)
            got = [list(c.values) for c in project_Q(m, proc, up_to_level=level).components]
            assert got == _radical_split(m, _projection_oracle(m, proc, level), level), (degree, level)


def test_packed_split_of_a_process_outside_the_field_of_the_maps(sg, sg_measure):
    """A table with sqrt(7) entries: the shadows leave the field of the maps and the split stays exact."""
    f = _sqrt7_process(sg, np.random.default_rng(46), 1)
    got = [list(c.values) for c in project_Q(sg_measure, f, up_to_level=3).components]
    assert got == _radical_split(sg_measure, _projection_oracle(sg_measure, f, 3), 3)


def test_split_forms_its_levels_with_no_radical_arithmetic(sg_measure, monkeypatch):
    """The packed split sums, divides and differences on integer coordinates: no Radical product, division or inverse.

    The packed core is spied, so the two splits of the dilation check, which
    never unpack, count with those of martingale_decompose and project_Q.
    """
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "_inverse"):
        orig = getattr(Radical, name)
        monkeypatch.setattr(Radical, name, lambda *a, orig=orig, name=name: calls.append(name) or orig(*a))
    core = procspace._components

    def spied(*args):
        calls.clear()
        out = core(*args)
        spied.calls.append(list(calls))
        return out

    spied.calls = []
    monkeypatch.setattr(procspace, "_components", spied)
    f = cylinder_from_values(sg_measure.system, 3, [Fraction(int(x), 3) for x in np.random.default_rng(47).integers(-5, 6, 27)])
    martingale_decompose(sg_measure, f)
    project_Q(sg_measure, embed_phi(sg_measure.system, f), up_to_level=4)
    assert dilation_check(sg_measure, f, 1).is_zero()
    assert len(spied.calls) == 4 and all(c == [] for c in spied.calls)


def test_martingale_components_of_indicator(sg_measure):
    f = indicator(sg_measure.system, (0,))
    rep = martingale_decompose(sg_measure, f)
    assert rep.components[0].values[0] == Fraction(1, 3)
    assert rep.component_norm_sq(0) == Fraction(1, 9)
    assert rep.component_norm_sq(1) == Fraction(2, 9)
    back = rep.function()
    assert all((x - y).is_zero() for x, y in zip(back.values, f.values))


def test_parseval(sg_measure):
    rng = np.random.default_rng(15)
    sg = sg_measure.system
    for _ in range(10):
        vals = [Fraction(int(x), 7) for x in rng.integers(-10, 11, size=27)]
        f = cylinder_from_values(sg, 3, vals)
        rep = martingale_decompose(sg_measure, f)
        direct = sum(
            (v * v * w for v, w in zip(f.values, sg_measure.level_nu(3))), Radical(0)
        )
        assert (rep.norm_sq() - direct).is_zero()
        back = rep.function()
        assert all((x - y).is_zero() for x, y in zip(back.values, f.values))


def test_components_are_orthogonal_across_levels(sg_measure):
    f = indicator(sg_measure.system, (0, 1))
    rep = martingale_decompose(sg_measure, f)
    masses = sg_measure.level_nu(2)
    c1 = rep.components[1].refine(2)
    c2 = rep.components[2]
    cross = sum(
        (a * b * w for a, b, w in zip(c1.values, c2.values, masses)), Radical(0)
    )
    assert cross.is_zero()


def test_projection_of_tracefree_constant(sg_measure):
    rep = project_Q(sg_measure, constant_process(sg_measure.system, _sigma_z()), up_to_level=1)
    assert rep.components[0].values[0].is_zero()
    vals = rep.components[1].values
    assert vals[0] == Fraction(4, 5)
    assert vals[1] == Fraction(-2, 5)
    assert vals[2] == Fraction(-2, 5)
    assert rep.component_norm_sq(1) == Fraction(8, 25)


def test_projection_of_antisymmetric_is_zero(sg_measure):
    anti = as_matrix([[0, Fraction(1)], [Fraction(-1), 0]], EXACT)
    rep = project_Q(sg_measure, constant_process(sg_measure.system, anti), up_to_level=2)
    for comp in rep.components:
        assert all(v.is_zero() for v in comp.values)


def test_gamma_norm_value(sg_measure):
    f = indicator(sg_measure.system, (0,))
    rep = martingale_decompose(sg_measure, f)
    got = gamma_norm(rep, Fraction(1, 2))
    want = Radical(Fraction(1, 3)) + Radical(Fraction(2, 3)) * Radical.root(2)
    assert (got - want).is_zero()
    assert gamma_norm(rep, 0.5) == pytest.approx(float(want), abs=1e-14)


def test_gamma_norm_monotone_in_gamma(sg_measure):
    f = indicator(sg_measure.system, (0, 0))
    rep = martingale_decompose(sg_measure, f)
    assert gamma_norm(rep, 0.3) >= gamma_norm(rep, 0.6) >= gamma_norm(rep, 0.9)


def test_gamma_norm_range_checked(sg_measure):
    rep = martingale_decompose(sg_measure, indicator(sg_measure.system, (0,)))
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            gamma_norm(rep, bad)


def test_dilation_identity_exact(sg_measure):
    f = indicator(sg_measure.system, (0, 1))
    for k in (0, 1, 2, 3):
        residual = dilation_check(sg_measure, f, k)
        assert residual.is_zero()


def test_dilation_walks_the_maps_once(sg, monkeypatch):
    """A fresh exact measure's dilation check walks the maps' entries once: the kernel packs them, and the
    map field moves that packing with no ``_terms`` of the maps."""
    from kusuoka import quadform

    packs, walked = [], []
    pack, terms = quadform._pack_maps, multiquad._terms
    monkeypatch.setattr(quadform, "_pack_maps", lambda maps: packs.append(1) or pack(maps))
    for module in (multiquad, quadform, procspace):
        monkeypatch.setattr(module, "_terms", lambda xs: walked.append(list(xs)) or terms(xs))
    rng = np.random.default_rng(3)
    f = cylinder_from_values(sg, 3, [Fraction(int(x)) for x in rng.integers(-3, 4, 27)])
    assert dilation_check(kusuoka_measure(sg), f, 1).is_zero()
    assert len(packs) == 1
    assert walked.count(list(np.array(sg.maps).ravel())) == 1


def test_dilation_identity_deeper_level(sg_measure):
    f = indicator(sg_measure.system, (1,))
    residual = dilation_check(sg_measure, f, 1, level=3)
    assert residual.is_zero()


def test_dilation_identity_bernoulli(bern_measure):
    f = indicator(bern_measure.system, (0, 0))
    for k in (0, 2):
        assert dilation_check(bern_measure, f, k).is_zero()


_DILATION_REGIMES = pytest.mark.parametrize("depth, k, level", [
    (2, 2, 2), (2, 3, 1),  # k >= depth: trace formula on the beta-weights
    (2, 1, 1), (2, 1, 2), (2, 0, 3),  # k < depth <= k + level
    (3, 1, 1), (3, 0, 1), (3, 1, 0),  # k + level < depth
])


def _dilation_f(system, depth, k):
    rng = np.random.default_rng(depth * 10 + k)
    vals = [Fraction(int(x), 3) for x in rng.integers(-5, 6, size=system.n_symbols ** depth)]
    return cylinder_from_values(system, depth, vals)


@pytest.mark.parametrize("system_name", ["sg", "sg3", "bern", "two_radicand"])
@_DILATION_REGIMES
def test_dilation_identity_every_regime(request, system_name, depth, k, level):
    system = request.getfixturevalue(system_name)
    f = _dilation_f(system, depth, k)
    assert dilation_check(kusuoka_measure(system), f, k, level=level).is_zero()


@_DILATION_REGIMES
def test_dilation_identity_every_regime_float(sg_float, depth, k, level):
    f = _dilation_f(sg_float, depth, k)
    assert dilation_check(kusuoka_measure(sg_float), f, k, level=level) <= 1e-13


@pytest.mark.parametrize("system_name", ["sg", "sg3", "bern", "two_radicand", "sg_float"])
@_DILATION_REGIMES
def test_packed_residual_equals_the_component_route(request, system_name, depth, k, level):
    """The residual decided on packed stacks is the one the unpacked components give.

    Exact: the Radical zero.  Float: the same bits, the gap unpacked and maxed.
    """
    m = kusuoka_measure(request.getfixturevalue(system_name))
    f = _dilation_f(m.system, depth, k)
    got, want = dilation_check(m, f, k, level=level), dilation_reference(m, f, k, level)
    if m.system.field.exact:
        assert isinstance(got, Radical) and got.is_zero()
        assert got == want and got.terms() == want.terms()
    else:
        assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("system_name", ["sg", "two_radicand"])
@pytest.mark.parametrize("depth, k, level", [(2, 2, 2), (2, 1, 2), (3, 1, 0)])
def test_values_outside_the_field_of_the_maps(request, system_name, depth, k, level):
    """f with a sqrt(7) value: the measure's maps and word table move into a field holding it, and embed_phi agrees."""
    m = kusuoka_measure(request.getfixturevalue(system_name))
    vals = list(_dilation_f(m.system, depth, k).values)
    vals[-1] = vals[-1] + Radical.root(7)
    f = cylinder_from_values(m.system, depth, vals)
    got = procspace._embed(m.system, f, multiquad._terms(f.values), m._maps, m._word_table(depth))
    assert 7 in got._maps.fld.radicand and 7 not in m._maps.fld.radicand
    assert (got.values == embed_phi(m.system, f).values).all()
    residual = dilation_check(m, f, k, level=level)
    assert residual.is_zero() and residual == dilation_reference(m, f, k, level)


@pytest.mark.parametrize("system_name", ["sg", "sg3", "two_radicand", "sg_float"])
@pytest.mark.parametrize("depth, k, level", [(2, 2, 2), (2, 3, 1), (1, 2, 3)])
def test_broken_identity_gives_the_component_gap(request, monkeypatch, system_name, depth, k, level):
    """A nonzero gap is unpacked and maxed: path (b) off by one at its first cylinder reads as the component route reads it."""
    m = kusuoka_measure(request.getfixturevalue(system_name))
    f = _dilation_f(m.system, depth, k)
    transfer_values = measure._transfer_values

    def broken(*args):
        num, den = transfer_values(*args)
        num = num.copy()
        num[0, 0] += den
        return num, den

    monkeypatch.setattr(measure, "_transfer_values", broken)
    got, want = dilation_check(m, f, k, level=level), dilation_reference(m, f, k, level)
    assert float(got) > 0.1
    if m.system.field.exact:
        assert got == want and got.terms() == want.terms()
    else:
        assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("system_name", ["sg", "two_radicand"])
@_DILATION_REGIMES
def test_dilation_takes_no_radical_arithmetic_and_no_word_matrix(request, monkeypatch, system_name, depth, k, level):
    """Both paths run on packed stacks: no Radical product, division or inverse, and no per-word state."""
    m = kusuoka_measure(request.getfixturevalue(system_name))
    f = _dilation_f(m.system, depth, k)
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "_inverse"):
        orig = getattr(Radical, name)
        monkeypatch.setattr(Radical, name, lambda *a, orig=orig, name=name: calls.append(name) or orig(*a))
    for module, name in ((measure, "transfer_apply"), (measure, "h_state"), (symbolic, "word_matrix")):
        orig = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, orig=orig, name=name: calls.append(name) or orig(*a))
    # an exact zero is decided on the packed gap: nothing is unpacked and no Radical is built
    for owner, name in ((multiquad._Span, "unpack"), (multiquad._Span, "unpack_array"), (Radical, "__init__")):
        orig = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, orig=orig, name=name: calls.append(name) or orig(*a))
    for name in ("from_terms", "_from_sorted", "_from_int"):
        orig = getattr(Radical, name)
        monkeypatch.setattr(Radical, name, classmethod(lambda cls, *a, orig=orig, name=name: calls.append(name) or orig(*a)))
    residual = dilation_check(m, f, k, level=level)
    assert calls == []
    assert residual is m.system.field.zero


@_DILATION_REGIMES
def test_dilation_reads_the_word_table_the_measure_holds(sg_measure, monkeypatch, depth, k, level):
    """Path (a) embeds f from the measure's cached word table: no word table is extended again.

    The only deeper steps left are those the transfer operator takes on a
    degree-0 process, one for each of the k - depth steps past f's depth.
    """
    f = _dilation_f(sg_measure.system, depth, k)
    sg_measure._word_table(depth)
    held = dict(sg_measure._level_mats)
    steps = []
    next_level = symbolic.next_level
    monkeypatch.setattr(symbolic, "next_level", lambda *a: steps.append(1) or next_level(*a))
    assert dilation_check(sg_measure, f, k, level=level).is_zero()
    assert len(steps) == max(k - depth, 0)
    assert sg_measure._level_mats.keys() == held.keys()
    assert all(sg_measure._level_mats[j] is held[j] for j in held)


def test_innovation_projection(sg_float):
    rng = np.random.default_rng(21)
    g = random_innovation_process(sg_float, 2, rng)
    assert innovation_residual(g) < 1e-12
    again = innovation_part(g)
    gap = max(
        float(np.abs(a - b).max()) for a, b in zip(again.values, g.values)
    )
    assert gap < 1e-12


@pytest.mark.parametrize("build", [
    sg_system, lambda: renormalize([[list(r) for r in a] for a in _RAW_BASE], EXACT),
], ids=["sg", "raw"])
def test_innovation_part_exact(build):
    f = _random_process(build(), np.random.default_rng(24), 2)
    assert innovation_residual(f) > 0
    g = innovation_part(f)
    assert g.degree == 2
    assert innovation_residual(g) == 0
    assert (innovation_part(g).values == g.values).all()
    # the projection is Euclidean: what it removed is entrywise orthogonal to what it kept
    assert ((f.values - g.values) * g.values).sum().is_zero()


def test_innovation_orthogonal_to_shallower_tables(sg_float):
    rng = np.random.default_rng(22)
    g = random_innovation_process(sg_float, 2, rng)
    for _ in range(10):
        raw = rng.standard_normal((3, 2, 2))
        shallow = FiniteProcess(sg_float, 1, tuple(raw))
        assert abs(process_inner(extend(shallow, 1), g)) < 1e-10


def test_innovation_requires_float(sg):
    rng = np.random.default_rng(23)
    with pytest.raises(ValueError):
        random_innovation_process(sg, 1, rng)


def test_q_decay_rows(sg):
    rows = q_decay_check(sg, k=1, j_max=4, trials=10, seed=3)
    assert [r.j for r in rows] == [1, 2, 3, 4]
    assert rows[0].bound == pytest.approx(1.0)
    theta = (67 / 75) ** 0.5
    for r in rows:
        assert r.ok
        assert r.bound == pytest.approx(theta ** (r.j - 1), abs=1e-12)
        assert r.max_ratio <= r.bound + 1e-12


def test_q_decay_packs_the_maps_once(sg, monkeypatch):
    """A check packs the maps once for all its trials, and its rows are those of one public draw per trial."""
    from kusuoka import matsys, measure

    packed = []
    for module in (procspace, measure):  # matsys validates on the kernel, with no map_field
        monkeypatch.setattr(module, "map_field", lambda *a, real=module.map_field: packed.append(1) or real(*a))
    rows = q_decay_check(sg, k=1, j_max=3, trials=7, seed=5)
    assert len(packed) == 1
    monkeypatch.undo()
    fsys = matsys.to_float_system(sg)
    m = kusuoka_measure(fsys, check=False)
    ratios = []
    for trial_seed in np.random.SeedSequence(5).spawn(7):
        g = random_innovation_process(fsys, 1, np.random.Generator(np.random.Philox(trial_seed)))
        rep = project_Q(m, g, up_to_level=3)
        ratios.append([float(rep.component_norm_sq(j)) ** 0.5 / float(process_norm_sq(g)) ** 0.5 for j in (1, 2, 3)])
    assert [r.max_ratio for r in rows] == [max(col) for col in zip(*ratios)]


def test_q_decay_guards(sg, bern):
    with pytest.raises(ValueError):
        q_decay_check(sg, k=3, j_max=2, trials=5, seed=0)
    with pytest.raises(ValueError):
        q_decay_check(sg, k=1, j_max=2, trials=0, seed=0)
    with pytest.raises(ValueError):
        q_decay_check(bern, k=0, j_max=2, trials=5, seed=0)
    with pytest.raises(BudgetError):
        q_decay_check(sg, k=1, j_max=2, trials=10, seed=0, budget=27)


def test_projection_ratio_of_tracefree_constant(sg_float):
    # |component_1| / |G| for the unit trace-free table: sqrt(8/25)
    m = kusuoka_measure(sg_float)
    g = constant_process(sg_float, np.diag([1.0, -1.0]))
    rep = project_Q(m, g, up_to_level=2)
    norm = float(process_norm_sq(g)) ** 0.5
    ratio = float(rep.component_norm_sq(1)) ** 0.5 / norm
    assert ratio == pytest.approx((8 / 25) ** 0.5, abs=1e-12)
    assert ratio <= (67 / 75) ** 0.5 + 1e-12


def test_transfer_maps_degree_component_down(sg, sg_measure):
    # an embedded pure degree-k component lands in degree k-1 under the
    # transfer, and its weighted norm gains the factor gamma
    rng = np.random.default_rng(23)
    gamma = Fraction(1, 2)
    for k in (2, 3):
        vals = [Fraction(int(x), 5) for x in rng.integers(-8, 9, size=27)]
        f = cylinder_from_values(sg, 3, vals)
        comp = martingale_decompose(sg_measure, f).components[k]
        x = embed_phi(sg, comp)
        rep_x = project_Q(sg_measure, x)
        assert all(
            rep_x.component_norm_sq(j).is_zero()
            for j in range(len(rep_x.components))
            if j != k
        )
        lx = transfer_L(x)
        rep_lx = project_Q(sg_measure, lx)
        assert all(
            rep_lx.component_norm_sq(j).is_zero()
            for j in range(len(rep_lx.components))
            if j != k - 1
        )
        slack = Radical(gamma) * gamma_norm(rep_x, gamma) - gamma_norm(rep_lx, gamma)
        assert slack.sign() >= 0


def test_transfer_powers_decay_at_top_rate(sg):
    # trace-free starting tables lose at least a factor 4/5 per transfer
    rng = np.random.default_rng(31)
    for _ in range(10):
        raw = [Fraction(int(v)) for v in rng.integers(-5, 6, size=3)]
        x0, y, z = raw
        b = as_matrix([[x0, y + z], [y - z, -x0]], EXACT)
        f = constant_process(sg, b)
        base = process_norm_sq(f)
        cur = f
        for k in range(1, 5):
            cur = transfer_L(cur)
            bound = Radical(Fraction(16, 25) ** k) * base
            assert (bound - process_norm_sq(cur)).sign() >= 0


# -- packed tables against word products --------------------------------------


def _sqrt7_process(system, rng, degree):
    """A table with sqrt(7) I on every other word: a radicand neither the maps nor E use."""
    f = _random_process(system, rng, degree)
    vals = list(f.values)
    for i in range(0, len(vals), 2):
        vals[i] = vals[i] + Radical.root(7) * as_matrix([[1, 0], [0, 1]], EXACT)
    return FiniteProcess(system, degree, tuple(vals))


_PACKED_TABLE_CASES = {
    "sg": (sg_system, _random_process),
    "two-radicand": (two_radicand_system, _random_process),
    "sg-sqrt7": (sg_system, _sqrt7_process),
}


@pytest.fixture(params=sorted(_PACKED_TABLE_CASES))
def packed_case(request):
    build, make = _PACKED_TABLE_CASES[request.param]
    system = build()
    f = make(system, np.random.default_rng(41), 1)
    g = make(system, np.random.default_rng(42), 2)
    return system, kusuoka_measure(system), f, g


def _same(got, want):
    return len(got) == len(want) and all((a == b).all() for a, b in zip(got, want))


def test_packed_extend_shift_transfer_equal_word_products(packed_case):
    system, _, f, _ = packed_case
    n, maps = system.n_symbols, system.maps
    ext = extend(f, 2)
    want = [word_matrix(system, w[1:]) @ f.values[w[0]] for w in all_words(n, 3)]
    assert _same(ext.values, want)
    want = [f.values[w[1]] @ maps[w[0]] for w in all_words(n, 2)]
    assert _same(shift_T(f).values, want)
    table = extend(f, 1).values
    want = [sum((table[s * n + a] @ maps[s].T for s in range(1, n)), table[a] @ maps[0].T) for a in range(n)]
    assert _same(transfer_L(extend(f, 1)).values, want)


def test_packed_embedding_and_level_matrices_equal_word_products(packed_case):
    system, m, _, _ = packed_case
    n = system.n_symbols
    rng = np.random.default_rng(43)
    vals = [Fraction(int(x), 3) for x in rng.integers(-5, 6, size=n ** 2)]
    vals[1] = vals[1] + Radical.root(7)
    f = cylinder_from_values(system, 2, vals)
    want = [f.values[i] * word_matrix(system, w) for i, w in enumerate(all_words(n, 2))]
    assert _same(embed_phi(system, f).values, want)
    for k in range(4):
        assert _same(m.level_matrices(k), [word_matrix(system, w) for w in all_words(n, k)])


def _inner_oracle(system, f, g):
    """<F, G> of a degree-1 F and a degree-2 G at level 2, F extended by word products."""
    n, e = system.n_symbols, system.energy
    total = Radical(0)
    for w in all_words(n, 2):
        fw = word_matrix(system, w[1:]) @ f.values[w[0]]
        total = total + np.trace(g.values[w[0] * n + w[1]].T @ e @ fw)
    return total


def test_packed_inner_product_and_projection_equal_word_products(packed_case):
    system, m, f, g = packed_case
    n, e = system.n_symbols, system.energy
    assert process_inner(f, g) == _inner_oracle(system, f, g)
    # tables packed in different fields meet in one
    plain = _random_process(system, np.random.default_rng(45), 1)
    assert process_inner(plain, g) == _inner_oracle(system, plain, g)
    assert process_inner(g, plain) == process_inner(plain, g)
    # q(alpha w) = Tr(A(alpha w)^T E A(w) F(alpha)) / nu(alpha w)
    for proc, level in ((f, 3), (g, 2), (g, 3)):
        got = project_Q(m, proc, up_to_level=level).function().values
        shadow = []
        for word in all_words(n, level):
            alpha, w = word[:proc.degree], word[proc.degree:]
            fw = word_matrix(system, w) @ proc.values[word_index(alpha, n)]
            a = word_matrix(system, word)
            shadow.append(np.trace(a.T @ e @ fw) / nu_reference(m, word))
        assert list(got) == shadow, level


def test_table_operations_take_no_radical_product(sg, monkeypatch):
    """embed_phi, extend and transfer_L run on packed integer tables: no Radical product."""
    calls = []
    mul = Radical.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Radical, "__mul__", counted)
    monkeypatch.setattr(Radical, "__rmul__", counted)
    assert Radical(2) * Radical(3) == 3 * Radical(2) and len(calls) == 2
    f = cylinder_from_values(sg, 3, [Fraction(int(x), 3) for x in np.random.default_rng(44).integers(-5, 6, 27)])
    calls.clear()
    g = extend(transfer_L(transfer_L(embed_phi(sg, f))), 2)
    assert calls == [] and g.degree == 3


# q_decay_check rows and a float projection as the unpacked Radical route computed them
_Q_DECAY_ROWS = {
    "sg": ((1, 4, 10, 3), [0.5715230920032095, 0.5646280084785595, 0.3104965275069599, 0.23845185821324782]),
    "sg3": ((1, 3, 10, 7), [0.5783743658146894, 0.5562887693077029, 0.2924120204922247]),
}


@pytest.mark.parametrize("name", sorted(_Q_DECAY_ROWS))
def test_q_decay_rows_are_pinned(request, name):
    args, want = _Q_DECAY_ROWS[name]
    rows = q_decay_check(request.getfixturevalue(name), *args)
    assert [r.j for r in rows] == list(range(args[0], args[1] + 1)) and all(r.ok for r in rows)
    assert [r.max_ratio for r in rows] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_project_q_float_is_pinned(sg_float, sg_float_measure):
    f = FiniteProcess(sg_float, 1, tuple(np.random.default_rng(9).standard_normal((3, 2, 2))))
    got = project_Q(sg_float_measure, f, up_to_level=3).function().values[:6]
    want = [-1.031557286098428, -1.6971881999080192, -0.17538554294265807,
            -2.061832974961881, -2.6998757140192158, -0.21757292408353757]
    assert list(got) == pytest.approx(want, rel=1e-12, abs=1e-12)
