"""The trace-defined cylinder measure: masses, conditionals, mixing, sampling."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kusuoka import cli, matsys, measure, spectral
from kusuoka.exactnum import Radical
from kusuoka.gasket import generate_system
from kusuoka.linalg import FLOAT
from kusuoka.matsys import bernoulli_system, make_system, sg_system
from kusuoka.measure import (
    MixingRow,
    SystemInvalidError,
    _le,
    conditional,
    correlation_gap,
    correlation_gap_brute,
    g_approx,
    h_state,
    kusuoka_measure,
    mixing_bound_check,
    nu,
    sample,
    sample_many,
    transfer_apply,
)
from kusuoka.multiquad import Multiquad
from kusuoka.spectral import renormalize
from kusuoka.symbolic import BudgetError, CylinderFunction, all_words, indicator, word_index, word_matrix
from conftest import (
    correlation_gaps_reference,
    g_reference,
    h_reference,
    nu_reference,
    two_radicand_system,
)


def test_invalid_system_rejected(sg):
    bad = make_system(sg.alphabet, sg.maps, sg.maps[0], sg.backend)
    with pytest.raises(SystemInvalidError) as exc:
        kusuoka_measure(bad)
    assert not exc.value.report.ok
    # opting out of the check still constructs
    kusuoka_measure(bad, check=False)


_PACKING_SYSTEMS = {
    "sg": (sg_system, 0),
    "sg3": (lambda: generate_system(3), 0),
    "bernoulli": (lambda: bernoulli_system([Fraction(1, 4), Fraction(3, 4)]), 0),
    "two-radicand": (two_radicand_system, 0),
    "sg-float": (lambda: sg_system(FLOAT), 0),
    "diagonal-d3": (lambda: _from_test_spectral("_diagonal_d3")(), 1),
}


@pytest.mark.parametrize("name", _PACKING_SYSTEMS)
def test_measure_validates_on_the_kernel_it_keeps(name, monkeypatch):
    """One packing of the maps per measure, no map_field, and no elimination for d <= 2 (one for d = 3).

    Validation and the measure share the one kernel that ``kusuoka_measure`` builds.
    """
    from kusuoka import multiquad, procspace, quadform

    build, eliminations = _PACKING_SYSTEMS[name]
    system = build()
    calls, kernels = [], []
    pack, eliminate, check = quadform._pack_maps, Multiquad.eliminate, matsys._validate_kernel
    monkeypatch.setattr(quadform, "_pack_maps", lambda maps: calls.append("_pack_maps") or pack(maps))
    monkeypatch.setattr(Multiquad, "eliminate", lambda *a: calls.append("eliminate") or eliminate(*a))
    for module in (multiquad, measure, procspace):
        monkeypatch.setattr(module, "map_field", lambda *a: calls.append("map_field"))
    monkeypatch.setattr(matsys, "_validate_kernel", lambda s, q, *a: kernels.append(q) or check(s, q, *a))
    m = kusuoka_measure(system)
    assert sorted(calls) == ["_pack_maps"] + ["eliminate"] * eliminations
    assert len(kernels) == 1 and kernels[0] is m._quad


def test_frozen_cylinder_masses(sg_measure):
    assert nu(sg_measure, ()) == Radical(1)
    assert nu(sg_measure, (0,)) == Fraction(1, 3)
    assert nu(sg_measure, (0, 0)) == Fraction(41, 225)
    assert nu(sg_measure, (0, 1)) == Fraction(17, 225)
    assert nu(sg_measure, (0, 2)) == Fraction(17, 225)
    assert nu(sg_measure, (0, 0, 0)) == Fraction(73, 675)


def test_symmetry_across_symbols(sg_measure):
    for s in (0, 1, 2):
        assert nu(sg_measure, (s,)) == Fraction(1, 3)
        assert nu(sg_measure, (s, s)) == Fraction(41, 225)


def test_total_mass_and_additivity(sg_measure):
    for k in range(5):
        masses = sg_measure.level_nu(k)
        total = sum(masses[1:], masses[0])
        assert (total - Radical(1)).is_zero()
    # two-sided refinement: nu(w) = sum_s nu(ws) = sum_s nu(sw)
    for k in range(4):
        for w in all_words(3, k):
            mass = nu(sg_measure, w)
            right = sum(nu(sg_measure, w + (s,)) for s in range(3))
            left = sum(nu(sg_measure, (s,) + w) for s in range(3))
            assert (right - mass).is_zero()
            assert (left - mass).is_zero()


def test_conditional_values(sg_measure):
    assert conditional(sg_measure, (0,), 0) == Fraction(41, 75)
    assert conditional(sg_measure, (0,), 1) == Fraction(17, 75)
    total = sum(conditional(sg_measure, (0,), s) for s in range(3))
    assert (total - Radical(1)).is_zero()


def test_conditional_zero_mass_guard(bern_measure):
    degenerate = kusuoka_measure(
        bernoulli_system([Fraction(0), Fraction(1)]), check=False
    )
    with pytest.raises(ValueError):
        conditional(degenerate, (0,), 1)


def test_g_approx_values(sg_measure):
    assert g_approx(sg_measure, (0, 0)) == Fraction(41, 75)
    assert g_approx(sg_measure, (0, 0, 0)) == Fraction(73, 123)
    assert g_approx(sg_measure, (0,)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        g_approx(sg_measure, ())


def test_h_state_values(sg_measure):
    h0 = h_state(sg_measure, (0,)).h
    assert h0[0, 0] == Fraction(9, 10)
    assert h0[1, 1] == Fraction(1, 10)
    assert h0[0, 1].is_zero()
    h00 = h_state(sg_measure, (0, 0)).h
    assert h00[0, 0] == Fraction(81, 82)
    assert h00[1, 1] == Fraction(1, 82)


def test_h_state_trace_one_and_psd(sg_measure):
    for w in [(1,), (2, 0), (1, 2, 0)]:
        h = h_state(sg_measure, w).h
        assert (np.trace(h) - Radical(1)).is_zero()
        eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in h]))
        assert eigs.min() >= -1e-15


def test_correlation_gap_closed_form(sg_measure):
    for n in range(7):
        gap = correlation_gap(sg_measure, (0,), (0,), n)
        want = Radical(Fraction(16, 225)) * Radical(Fraction(4, 5)) ** n
        assert (gap - want).is_zero()


def test_correlation_gap_matches_brute(sg_measure):
    for alpha in [(0,), (1, 2)]:
        for beta in [(0,), (2,)]:
            for n in range(4):
                fast = correlation_gap(sg_measure, alpha, beta, n)
                slow = correlation_gap_brute(sg_measure, alpha, beta, n)
                assert (fast - slow).is_zero()


def test_correlation_gaps_are_one_packed_trace_formula(sg3, monkeypatch):
    """correlation_gap and `kusuoka correlate` read one packed loop: no Radical M* step, and the gaps are the brute sums."""
    m = kusuoka_measure(sg3)
    want = [correlation_gap_brute(m, (0, 1), (2,), n) for n in range(3)]

    def refuse(*args):
        raise AssertionError("Radical M* step")

    monkeypatch.setattr(matsys, "apply_M_star", refuse)
    assert measure._correlation_gaps(m, (0, 1), (2,), 2) == want
    assert [correlation_gap(m, (0, 1), (2,), n) for n in range(3)] == want


def test_correlation_gap_bernoulli_is_zero(bern_measure):
    for n in range(3):
        gap = correlation_gap(bern_measure, (0,), (1,), n)
        assert gap.is_zero()


def test_mixing_bound_rows(sg_measure):
    rows = mixing_bound_check(sg_measure, 2, 6)
    assert [r.n for r in rows] == list(range(7))
    for r in rows:
        assert r.gap_ok
        assert r.pointwise_ok
        assert (r.gap_bound - Radical(2) * Radical(Fraction(4, 5)) ** r.n).is_zero()
    # the worst depth-1 pair at separation 0 is the diagonal one
    rows1 = mixing_bound_check(sg_measure, 1, 0)
    assert (rows1[0].max_gap - Radical(Fraction(16, 225))).is_zero()


@pytest.mark.parametrize("symbol", [-1, 3])
def test_words_outside_the_alphabet_are_rejected(sg_measure, symbol):
    sg = sg_measure.system
    message = f"symbol {symbol} is outside the alphabet of 3 symbols"
    for call in (lambda: nu(sg_measure, (symbol,)), lambda: h_state(sg_measure, (0, symbol)),
                 lambda: indicator(sg, (symbol,)), lambda: correlation_gap(sg_measure, (0,), (symbol,), 1),
                 lambda: correlation_gap(sg_measure, (symbol,), (0,), 1)):
        with pytest.raises(ValueError, match=message):
            call()


def test_transfer_apply_values(sg_measure):
    ind0 = indicator(sg_measure.system, (0,))
    assert transfer_apply(sg_measure, ind0, 0, (0,)) == Fraction(41, 75)
    assert transfer_apply(sg_measure, ind0, 2, (0,)) == Fraction(881, 1875)


def test_transfer_apply_brute(sg_measure):
    # literal (mshift + depth)-fold preimage sum, conditioned on the prefix state
    ind0 = indicator(sg_measure.system, (0,))
    h = h_state(sg_measure, (0,)).h
    total = Radical(0)
    for w in all_words(3, 3):  # mshift 2 + depth 1
        if w[0] != 0:
            continue
        a = sg_measure.system.maps[w[0]]
        for s in w[1:]:
            a = sg_measure.system.maps[s] @ a
        total = total + np.trace(h @ (a @ a.T))
    assert (transfer_apply(sg_measure, ind0, 2, (0,)) - total).is_zero()


def test_transfer_apply_converges_to_mean(sg_measure):
    # |T^n f (x) - mean| <= 2 theta1^n * spread for the depth-1 indicator
    ind0 = indicator(sg_measure.system, (0,))
    for n in (1, 4, 8):
        val = transfer_apply(sg_measure, ind0, n, (1,))
        assert abs(float(val) - 1 / 3) <= 2 * 0.8**n


def test_transfer_apply_guards(sg_measure, bern_measure):
    ind0 = indicator(sg_measure.system, (0,))
    with pytest.raises(ValueError):
        transfer_apply(sg_measure, ind0, -1, (0,))
    with pytest.raises(ValueError):
        transfer_apply(bern_measure, ind0, 0, (0,))


def test_bernoulli_product_masses(bern_measure):
    p = [Fraction(1, 4), Fraction(3, 4)]
    for w in all_words(2, 3):
        want = Fraction(1)
        for s in w:
            want *= p[s]
        assert nu(bern_measure, w) == want


def test_sampler_deterministic(sg_measure):
    a = sample_many(sg_measure, 6, 50, seed=123)
    b = sample_many(sg_measure, 6, 50, seed=123)
    assert a == b
    c = sample_many(sg_measure, 6, 50, seed=124)
    assert a != c
    assert sample(sg_measure, 6, seed=123) == a[0]


def test_sampler_frequencies(sg_measure):
    n = 20000
    draws = sample_many(sg_measure, 1, n, seed=7)
    counts = Counter(w[0] for w in draws)
    for s in range(3):
        p = 1 / 3
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[s] / n - p) < 4 * sigma


def test_sampler_budget(sg_measure):
    with pytest.raises(BudgetError):
        sample_many(sg_measure, 10, 1000, seed=0, budget=100)


def test_float_backend_agrees(sg_float_measure):
    assert nu(sg_float_measure, (0, 0)) == pytest.approx(41 / 225, abs=1e-14)
    gap = correlation_gap(sg_float_measure, (0,), (0,), 3)
    assert gap == pytest.approx(16 / 225 * 0.8**3, abs=1e-14)


def test_mass_depends_only_on_word(sg_measure):
    # a cylinder pinned at positions [a, a+len) weighs the same as the
    # initial one: summing over all depth-a prefixes recovers nu(word)
    words = [w for k in range(1, 4) for w in all_words(3, k)]
    for a in (1, 2, 3):
        for word in words:
            shifted = sum(nu(sg_measure, g + word) for g in all_words(3, a))
            assert (shifted - nu(sg_measure, word)).is_zero()


def test_conditional_sums_to_one_on_random_prefixes(sg_measure):
    rng = np.random.default_rng(13)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        prefix = tuple(int(s) for s in rng.integers(0, 3, size=k))
        total = sum(conditional(sg_measure, prefix, s) for s in range(3))
        assert (total - Radical(1)).is_zero()


def test_h_state_sweep_trace_one_and_psd(sg_measure):
    for k in range(1, 7):
        for w in all_words(3, k):
            h = h_state(sg_measure, w).h
            assert (np.trace(h) - Radical(1)).is_zero()
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            assert h[0, 0].sign() >= 0
            assert det.sign() >= 0


# -- the quadratic-form kernel against the word-matrix oracles ----------------

RAW_170 = (((0, 3), (1, -2)), ((2, -1), (0, -3)), ((-2, -1), (1, 2)))
FLOAT_RTOL = 1e-14


_ORACLE_SYSTEMS = {
    "sg": (sg_system, 3, 2),
    "sg3": (lambda: generate_system(3), 2, 1),
    "sg4": (lambda: generate_system(4), 2, 1),
    "bernoulli": (lambda: bernoulli_system([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]), 3, 2),
    "raw170": (lambda: renormalize([[list(r) for r in a] for a in RAW_170]), 3, 2),
    "two-radicand": (two_radicand_system, 3, 2),
}


@pytest.fixture(scope="module", params=sorted(_ORACLE_SYSTEMS))
def oracle_case(request):
    build, depth, mix_k = _ORACLE_SYSTEMS[request.param]
    return request.param, kusuoka_measure(build()), depth, mix_k


def test_kernel_fields():
    assert kusuoka_measure(sg_system())._quad.gens == [3]
    assert kusuoka_measure(generate_system(4))._quad.gens == [3]
    assert kusuoka_measure(renormalize([[list(r) for r in a] for a in RAW_170]))._quad.gens == [170]
    assert kusuoka_measure(two_radicand_system())._quad.radicand == [1, 15, 30, 2]


def test_level_nu_equals_word_oracle(oracle_case):
    _, m, depth, _ = oracle_case
    n = m.system.n_symbols
    for k in range(depth + 1):
        assert m.level_nu(k) == [nu_reference(m, w) for w in all_words(n, k)]


def test_mixing_max_gap_equals_pair_oracle(oracle_case):
    name, m, _, k = oracle_case
    if name == "two-radicand":
        # the uncertified route: float bounds, exact gaps
        assert m._quad.theta1.exact is None
    n_sym, n_max = m.system.n_symbols, 2
    rows = mixing_bound_check(m, k, n_max)
    alphas = list(all_words(n_sym, k))
    betas = [b for j in range(k + 1) for b in all_words(n_sym, j)]
    for row in rows:
        want = max(abs(correlation_gap(m, a, b, row.n)) for a in alphas for b in betas)
        assert row.max_gap == want


def test_transfer_apply_equals_preimage_sum(oracle_case):
    _, m, depth, _ = oracle_case
    sys_, n = m.system, m.system.n_symbols
    f_depth = 2 if n <= 3 else 1
    rng = np.random.default_rng(5)
    f = CylinderFunction(f_depth, n, sys_.field.array([Fraction(int(x), 3) for x in rng.integers(-3, 4, n**f_depth)]), sys_.backend)
    for mshift in (0, 1):
        for prefix in [(0,), (n - 1, 0)]:
            h = h_state(m, prefix).h
            brute = Radical(0)
            for w in all_words(n, f_depth + mshift):
                a = word_matrix(sys_, w)
                brute = brute + f.values[word_index(w[:f_depth], n)] * np.trace(h @ (a @ a.T))
            assert transfer_apply(m, f, mshift, prefix) == brute


# -- single-word queries on the kernel against the word-matrix references -----

_WORD_SYSTEMS = {
    "sg": sg_system,
    **{f"sg{k}": (lambda k=k: generate_system(k)) for k in (3, 4, 5)},
    "bernoulli": lambda: bernoulli_system([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]),
    "raw170": lambda: renormalize([[list(r) for r in a] for a in RAW_170]),
    "two-radicand": two_radicand_system,
}


@pytest.fixture(scope="module", params=sorted(_WORD_SYSTEMS))
def word_measures(request):
    """The exact measure of one system and the measure of its float copy."""
    system = _WORD_SYSTEMS[request.param]()
    return kusuoka_measure(system), kusuoka_measure(matsys.to_float_system(system))


def _query_words(n: int) -> list:
    """(word, beta, s): two seeded words of each length 0 .. 8, a beta of length 0 .. 2 and a symbol."""
    rng = np.random.default_rng(29)
    return [(tuple(rng.integers(0, n, k).tolist()), tuple(rng.integers(0, n, k % 3).tolist()), int(rng.integers(n)))
            for k in range(9) for _ in range(2)]


def test_word_queries_equal_word_matrix_reference(word_measures):
    m = word_measures[0]
    for word, beta, s in _query_words(m.system.n_symbols):
        assert nu(m, word) == nu_reference(m, word)
        assert conditional(m, word, s) == nu_reference(m, word + (s,)) / nu_reference(m, word)
        assert (h_state(m, word).h == h_reference(m, word)).all()
        if word:
            assert g_approx(m, word) == g_reference(m, word)
        gaps = correlation_gaps_reference(m, word, beta, 3)
        assert measure._correlation_gaps(m, word, beta, 3) == gaps
        assert correlation_gap(m, word, beta, 3) == gaps[-1]


def test_float_word_queries_agree_with_word_matrix_reference(word_measures):
    """Relative to the value; a gap relative to nu(alpha) nu(beta), the size of the terms it is the difference of.

    The float quadratic forms carry the squared conditioning of the maps:
    over a few hundred random words of length 6 to 8 on sg3 .. sg5 the
    deviation reaches about 1e-12, so this seeded set is a spot check, not a bound.
    """
    m = word_measures[1]
    for word, beta, s in _query_words(m.system.n_symbols):
        assert nu(m, word) == pytest.approx(nu_reference(m, word), rel=FLOAT_RTOL, abs=0)
        want = nu_reference(m, word + (s,)) / nu_reference(m, word)
        assert conditional(m, word, s) == pytest.approx(want, rel=FLOAT_RTOL, abs=0)
        h, want = h_state(m, word).h, h_reference(m, word)
        assert np.abs(h - want).max() <= FLOAT_RTOL * np.abs(want).max()
        if word:
            assert g_approx(m, word) == pytest.approx(g_reference(m, word), rel=FLOAT_RTOL, abs=0)
        scale = nu_reference(m, word) * nu_reference(m, beta)
        got, want = measure._correlation_gaps(m, word, beta, 3), correlation_gaps_reference(m, word, beta, 3)
        assert np.abs(np.subtract(got, want)).max() <= 1e-14 * scale


def test_level_g_equals_per_word_g_approx(word_measures):
    for m in word_measures:
        n = m.system.n_symbols
        for k in range(1, 5):
            if n ** k > 1296:
                break
            want = [g_approx(m, w) for w in all_words(n, k)]
            if m.system.field.exact:
                assert m.level_g(k) == want
            else:
                assert m.level_g(k) == pytest.approx(want, rel=1e-14, abs=0)


def test_level_g_guards(sg_measure):
    with pytest.raises(ValueError):
        sg_measure.level_g(0)
    with pytest.raises(BudgetError):
        sg_measure.level_g(3, budget=26)


@pytest.mark.parametrize("name", ["sg", "sg3", "two-radicand", "raw170", "bernoulli"])
def test_word_queries_take_no_radical_arithmetic(name, monkeypatch):
    """nu, conditional, g_approx, h_state, transfer_apply, the correlation gaps and the level g table stay packed."""
    m = kusuoka_measure(_WORD_SYSTEMS[name]())
    n = m.system.n_symbols
    word, f = tuple(i % n for i in range(1, 7)), indicator(m.system, (n - 1, 0))

    def refuse(*args):
        raise AssertionError("Radical arithmetic")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
               "__neg__", "__pow__", "_inverse", "sqrt"):
        monkeypatch.setattr(Radical, op, refuse)
    nu(m, word)
    conditional(m, word, n - 1)
    g_approx(m, word)
    h_state(m, word)
    transfer_apply(m, f, 2, word)
    measure._correlation_gaps(m, word[:2], word[2:], 4)
    correlation_gap(m, word[:3], word[3:], 2)
    m.level_g(3)


def test_kernel_sign_matches_radical_sign():
    q = kusuoka_measure(two_radicand_system())._quad
    rng = np.random.default_rng(11)
    # near-cancelling elements: a + b sqrt15 + c sqrt30 + d sqrt2 with a ~ -c sqrt30, etc.
    coords = rng.integers(-40, 41, (400, 4)).astype(object)
    coords[:100, 0] = [-int(c * 5477) // 1000 for c in coords[:100, 2]]
    signs = q.sign(coords)
    for row, s in zip(coords, signs):
        assert s == q.unpack(row[None], 1)[0].sign()


def test_float_kernel_agrees_with_exact(sg_measure, sg_float_measure):
    for k in range(4):
        for x, y in zip(sg_measure.level_nu(k), sg_float_measure.level_nu(k)):
            assert abs(float(x) - y) <= 1e-12 * abs(float(x))
    for ex, fl in zip(mixing_bound_check(sg_measure, 2, 8), mixing_bound_check(sg_float_measure, 2, 8)):
        for attr in ("max_gap", "pointwise_max", "pointwise_bound"):
            x, y = float(getattr(ex, attr)), getattr(fl, attr)
            assert abs(x - y) <= 1e-12 * abs(x)
        assert (ex.gap_ok, ex.pointwise_ok) == (fl.gap_ok, fl.pointwise_ok)
    ind = indicator(sg_measure.system, (1, 0))
    ind_f = indicator(sg_float_measure.system, (1, 0))
    for mshift in (0, 3):
        x = float(transfer_apply(sg_measure, ind, mshift, (2, 1)))
        assert abs(transfer_apply(sg_float_measure, ind_f, mshift, (2, 1)) - x) <= 1e-12 * x
    assert sample_many(sg_float_measure, 8, 6, 3) == sample_many(sg_measure, 8, 6, 3)


def test_sampler_words_pinned():
    # exact words as drawn before the sampler ran on packed quadratic forms
    assert sample_many(kusuoka_measure(sg_system()), 8, 6, 3) == [
        (0, 0, 0, 2, 2, 2, 2, 2), (2, 2, 1, 2, 1, 1, 1, 1), (0, 2, 2, 2, 2, 0, 1, 2),
        (2, 2, 2, 2, 2, 2, 2, 2), (2, 2, 2, 1, 2, 2, 0, 0), (2, 1, 2, 2, 2, 2, 1, 2),
    ]
    assert sample_many(kusuoka_measure(generate_system(3)), 6, 6, 4) == [
        (1, 3, 5, 1, 1, 4), (1, 5, 1, 3, 1, 4), (2, 3, 2, 2, 2, 2),
        (0, 4, 4, 4, 4, 0), (2, 2, 2, 1, 2, 5), (1, 4, 0, 0, 2, 5),
    ]


def test_kernel_budget_checked_before_allocating(capsys):
    m = kusuoka_measure(sg_system())
    with pytest.raises(BudgetError):
        m.level_nu(20)
    with pytest.raises(BudgetError):
        mixing_bound_check(m, 20, 1)
    with pytest.raises(BudgetError):
        mixing_bound_check(m, 3, 1, budget=26)
    assert not m._level_p and not m._level_mass
    assert cli.main(["mixing-bound", "--builtin", "sg", "--budget-k", "1", "--k", "2"]) == 3


def test_mixing_bounds_are_floats_when_theta1_is_uncertified():
    # theta1 of this system is 1 but not certified (ROADMAP item 2): the bound
    # columns are floats, the maxima stay exact
    m = kusuoka_measure(two_radicand_system())
    assert spectral.theta1(m.system).exact is None
    rows = mixing_bound_check(m, 1, 2)
    assert len(rows) == 3
    for row in rows:
        assert isinstance(row.gap_bound, float) and isinstance(row.pointwise_bound, float)
        assert row.max_gap == Fraction(1, 225) and row.pointwise_max == Fraction(1, 15)
        assert row.gap_ok and row.pointwise_ok
    assert rows[0].pointwise_bound == 2 * float(Fraction(11, 15))


def test_mixing_gap_blocks_agree(monkeypatch):
    import kusuoka.quadform as quadform_mod

    whole = mixing_bound_check(kusuoka_measure(sg_system()), 2, 4)
    monkeypatch.setattr(quadform_mod, "_GAP_BLOCK", 20)  # 9 alphas x 13 betas: one step and one alpha per block
    assert mixing_bound_check(kusuoka_measure(sg_system()), 2, 4) == whole


@pytest.mark.parametrize("k, block", [(2, 50), (1, 50)], ids=["rows-and-alphas", "rows"])
def test_mixing_blocks_split_steps_and_alphas(monkeypatch, k, block):
    """k = 2: 117 pairs a step, so one step per block and alphas in blocks of 3; k = 1: 12 pairs, 4 steps per block."""
    import kusuoka.quadform as quadform_mod

    whole = mixing_bound_check(kusuoka_measure(sg_system()), k, 40)
    monkeypatch.setattr(quadform_mod, "_GAP_BLOCK", block)
    assert mixing_bound_check(kusuoka_measure(sg_system()), k, 40) == whole


# -- the mixing table against the table of one step and one alpha at a time ---


def _reference_rows(m, k: int, n_max: int) -> list:
    """The mixing table one separation step at a time.

    Every gap and every centred matrix's Schatten norm is unpacked and
    compared by ``_le``.
    """
    sys_, q, fld = m.system, m._quad, m.system.field
    t1 = q.theta1
    lift, rate = (fld.lift, t1.exact) if t1.exact is not None else (float, t1.value)
    pa = m._level_table(k)
    a_mass = [lift(x) for x in m.level_nu(k)]
    a_nu = q.nu(pa)
    weights = q.join(q.betas(k))
    b_nu = q.join([q.nu(m._level_table(j)) for j in range(k + 1)])
    prod = q.mul(a_nu[0][:, None, :], b_nu[0][None, :, :]), a_nu[1] * b_nu[1]
    centered = q.sub(pa, q.scaled_ident(a_nu))
    rows, t1_pow = [], lift(1)
    for n in range(n_max + 1):
        if n:
            weights, centered = q.apply(weights, q.m_star_sum), q.apply(centered, q.m_sum)
            t1_pow = t1_pow * rate
        num, den = q.sub(q.pair(pa, weights), prod)
        max_gap = None
        for gap in q.unpack(num.reshape(-1, q.m), den):
            if max_gap is None or not _le(abs(gap), max_gap):
                max_gap = abs(gap)
        pw_max, pw_ok, scale = None, True, lift(sys_.dim) * t1_pow
        for c, mass in zip(q.unpack_matrices(*centered, fld), a_mass):
            norm = matsys.schatten_norm(c, "inf")
            pw_ok = pw_ok and _le(norm, scale * mass, 1e-12)
            if pw_max is None or not _le(norm, pw_max):
                pw_max = norm
        gap_bound = lift(2) * t1_pow
        rows.append(MixingRow(n, max_gap, gap_bound, _le(max_gap, gap_bound), pw_max, scale * max(a_mass), pw_ok))
    return rows


def _from_test_spectral(name: str):
    """A system builder of test_spectral, which imports this module, so it is looked up on use."""
    import test_spectral

    return getattr(test_spectral, name)


_MIXING_CASES = {
    **{f"{name}-k{k}": (build, k, 4)
       for name, (build, _, mix_k) in _ORACLE_SYSTEMS.items() for k in sorted({0, mix_k})},
    **{f"raw{b}-k{k}": ((lambda b=b: _from_test_spectral("_raw_system")(b)), k, 3)
       for b in range(3) for k in (0, 1, 2)},
    "raw0-k2-negative": (lambda: _from_test_spectral("_raw_system")(0), 2, 5),
    "diagonal-d3": (lambda: _from_test_spectral("_diagonal_d3")(), 1, 3),
}


@pytest.mark.parametrize("name", sorted(_MIXING_CASES))
def test_mixing_table_equals_per_alpha_reference(name):
    build, k, n_max = _MIXING_CASES[name]
    m = kusuoka_measure(build())
    rows = mixing_bound_check(m, k, n_max)
    assert rows == _reference_rows(m, k, n_max)
    if name == "raw0-k2-negative":
        # theta1 = sqrt(471)/29 lies outside the kernel's field Q(sqrt 19); the certificate fails for n <= 4
        assert [r.pointwise_ok for r in rows] == [False] * 5 + [True]
    if name.startswith("two-radicand"):
        assert all(isinstance(r.pointwise_bound, float) for r in rows)


def test_float_mixing_table_agrees_with_reference(sg_float_measure):
    rows = mixing_bound_check(sg_float_measure, 2, 8)
    want = _reference_rows(sg_float_measure, 2, 8)
    for row, ref in zip(rows, want, strict=True):
        assert abs(row.pointwise_max - ref.pointwise_max) <= 1e-12 * ref.pointwise_max
        assert row == MixingRow(**{**vars(ref), "pointwise_max": row.pointwise_max})


def test_pointwise_column_takes_one_root_per_step(monkeypatch):
    calls = Counter()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    cases = [(kusuoka_measure(sg_system()), 2, 6), (kusuoka_measure(generate_system(3)), 1, 5)]
    for m, _, _ in cases:
        m._quad.theta1  # noqa: B018 -- certified before the count starts
    monkeypatch.setattr(matsys, "schatten_norm", spy("schatten_norm", matsys.schatten_norm))
    monkeypatch.setattr(Radical, "sqrt", spy("sqrt", Radical.sqrt))
    for m, k, n_max in cases:
        calls.clear()
        rows = mixing_bound_check(m, k, n_max)
        assert calls["schatten_norm"] + calls["sqrt"] <= len(rows)


_SURD_FIELDS = {"sqrt3": Multiquad({3}, True), "two-radicand": Multiquad({15, 30}, True)}


def _root_of(fld, draw, scale):
    """(coordinates of a >= 0, sqrt(a) as a Radical, coordinates of sqrt(a) or None), a scaled by scale^2."""
    if draw(st.booleans()):
        p = np.array([draw(st.integers(-20, 20)) for _ in range(fld.m)], dtype=object)
        root = abs(fld.unpack(p[None], 1)[0])
        p = p if fld.unpack(p[None], 1)[0].sign() >= 0 else -p
        return fld.mul(p, p) * scale * scale, root * scale, p * scale
    r = draw(st.integers(0, 60))
    a = np.zeros(fld.m, dtype=object)
    a[0] = r * scale * scale
    return a, Radical.root(Fraction(r)) * scale, None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SURD_FIELDS)), st.sampled_from(["free", "tie", "near"]), st.data())
def test_surd_sign_matches_radical(field, mode, data):
    """sign(u + sqrt(a) - sqrt(b)), each root a field element or the root of a rational; ties and near-ties included."""
    fld, draw = _SURD_FIELDS[field], data.draw
    scale = 1 if mode == "free" else 1000
    a, root_a, ca = _root_of(fld, draw, scale)
    b, root_b, cb = _root_of(fld, draw, scale)
    if mode == "free":
        u = np.array([draw(st.integers(-40, 40)) for _ in range(fld.m)], dtype=object)
    elif ca is not None and cb is not None:
        u = cb - ca
    else:
        # the integer nearest to sqrt(b) - sqrt(a) in its rational coordinate
        u = np.zeros(fld.m, dtype=object)
        u[0] = round(float(root_b - root_a))
    if mode == "near":
        u = u + np.array([draw(st.integers(-1, 1)) for _ in range(fld.m)], dtype=object)
    want = (fld.unpack(u[None], 1)[0] + root_a - root_b).sign()
    assert fld.surd_sign(u[None], a[None], b[None])[0] == want


@pytest.mark.parametrize("u, a, b, want", [
    ([5, 0], [9, 0], [16, 0], 1),  # z = u^2 - a - b = 0 and ab > 0
    ([-3, 0], [9, 0], [0, 0], 0),  # z = 0 and ab = 0: -3 + 3 - 0
    ([0, 1], [0, 0], [3, 0], 0),  # sqrt 3 + 0 - sqrt 3
    ([0, -1], [3, 0], [0, 0], 0),
    ([1, 0], [0, 0], [3, 0], -1),  # z < 0: 1 < sqrt 3
    ([2, 0], [0, 0], [3, 0], 1),  # z > 0
])
def test_surd_sign_edge_cases(u, a, b, want):
    fld = _SURD_FIELDS["sqrt3"]
    args = [np.array([x], dtype=object) for x in (u, a, b)]
    assert fld.surd_sign(*args)[0] == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 40)), min_size=n, max_size=n),
             min_size=1, max_size=3),
    st.lists(st.integers(1, 9), min_size=n, max_size=n))))
def test_norm_winners_are_first_largest(case):
    """Over Q: the first largest x + sqrt(y), and of (x + sqrt(y)) / nu, by Radical arithmetic."""
    parts, nus = case
    q = kusuoka_measure(bernoulli_system([Fraction(1, 2), Fraction(1, 2)]))._quad
    assert q.m == 1
    x = np.array([[[p[0]] for p in row] for row in parts], dtype=object)
    y = np.array([[[p[1]] for p in row] for row in parts], dtype=object)
    by_norm, by_ratio = q.norm_winners(x, y, np.array([[v] for v in nus], dtype=object))

    def first_max(keys):
        best = 0
        for i, key in enumerate(keys):
            if (key - keys[best]).sign() > 0:
                best = i
        return best

    for r, row in enumerate(parts):
        norms = [Radical(a) + Radical.root(Fraction(b)) for a, b in row]
        assert by_norm[r] == first_max(norms)
        assert by_ratio[r] == first_max([v / nu for v, nu in zip(norms, nus)])
