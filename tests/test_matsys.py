"""Map families, their validation, and the two averaging operators."""

import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kusuoka import cli, multiquad
from kusuoka.exactnum import Radical
from kusuoka.gasket import generate_system
from kusuoka.linalg import EXACT, FLOAT, as_matrix, frobenius_sq
from kusuoka.matsys import (
    apply_M,
    apply_M_star,
    bernoulli_system,
    inner_e,
    make_system,
    schatten_norm,
    sg_system,
    system_from_json,
    system_to_json,
    to_float_system,
    validate,
)
from kusuoka.spectral import renormalize
from kusuoka.symbolic import all_words
from kusuoka.systems import get_builtin
from conftest import laplace_det, laplace_minors
from test_spectral import RAW_BASES, _diagonal_d3, _raw_system


def _rand_sym(rng, d):
    m = rng.integers(-5, 6, size=(d, d))
    q = as_matrix([[Fraction(int(x)) for x in row] for row in (m + m.T)], EXACT)
    return q


def test_sg_validates_exactly(sg):
    report = validate(sg)
    assert report.ok
    assert report.invariance_residual == 0.0
    assert report.normalization_residual == 0.0
    assert report.symmetric


def test_sg_float_validates(sg_float):
    report = validate(sg_float)
    assert report.ok
    assert report.invariance_residual < 1e-14


GOLDEN = Path(__file__).parent / "golden"
VALIDATE_CASES = {"sg": "sg", "sg3": "sg3", "sg4": "sg4", "bernoulli": "bernoulli:1/4,3/4"}


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
@pytest.mark.parametrize("case", VALIDATE_CASES)
def test_validate_stdout_is_pinned(case, backend, capsys):
    assert cli.main(["validate", "--builtin", VALIDATE_CASES[case], "--backend", backend]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"validate-{case}-{backend}.txt").read_bytes().decode()


@pytest.mark.parametrize("name", ("sg", "sg3", "sg4", "sg5", "bernoulli:1/4,3/4", "bernoulli:1/3,1/3,1/3",
                                  "bernoulli:1/2,1/3"))
def test_float_residuals_match_the_averaging_operators(name):
    """The packed residuals equal the Frobenius norms of M*(E) - E and M(I) - I formed by apply_M*/apply_M."""
    system = get_builtin(name, FLOAT)
    ident = np.eye(system.dim)
    report = validate(system)
    assert report.invariance_residual == math.sqrt(
        frobenius_sq(apply_M_star(system, system.energy) - system.energy))
    assert report.normalization_residual == math.sqrt(frobenius_sq(apply_M(system, ident) - ident))


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
def test_offending_value_is_the_least_eigenvalue(backend, sg, monkeypatch):
    """E = [[1/2, 1], [1, 1/2]] has eigenvalues 3/2 and -1/2; its leading minors are 1/2 and -3/4."""
    half = Fraction(1, 2)
    system = make_system(("0",), [[[1, 0], [0, 1]]], [[half, 1], [1, half]], backend)
    report = validate(system)
    assert not report.positive_definite and not report.ok
    assert report.offending_eigenvalue == pytest.approx(-0.5, abs=1e-15)
    assert report.lines()[3] == "weight positive definite [FAIL] (offending eigenvalue -5.000e-01)"
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    assert validate(sg).ok and calls == []  # a valid exact weight computes no eigenvalue


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
def test_a_weight_that_is_not_symmetric_says_so(backend):
    """eigvalsh reads one triangle only, so a non-symmetric weight reports no eigenvalue."""
    e = [[Fraction(1, 2), Fraction(1, 4)], [0, Fraction(1, 2)]]
    report = validate(make_system(("0",), [[[1, 0], [0, 1]]], e, backend))
    assert not report.weight_symmetric and not report.positive_definite and not report.ok
    assert report.offending_eigenvalue is None
    assert report.lines()[3] == "weight positive definite [FAIL] (weight not symmetric)"


def _validation_systems():
    half = Fraction(1, 2)
    return {
        "sg": sg_system,
        **{f"sg{n}": (lambda n=n: generate_system(n)) for n in range(3, 7)},
        "bernoulli": lambda: bernoulli_system([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]),
        **{f"raw{b}": (lambda b=b: _raw_system(b)) for b in range(3)},
        "diagonal-d3": _diagonal_d3,
        "singular-map": lambda: make_system("ab", [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [[half, 0], [0, half]], EXACT),
        "zero-leading-minor": lambda: make_system("a", [[[1, 0], [0, 1]]], [[0, 1], [1, 1]], EXACT),
        "negative-leading-minor": lambda: make_system(
            "ab", [[[1, 0], [0, 1]], [[1, 1], [0, 1]]], [[-half, 1], [1, Fraction(3, 2)]], EXACT),
    }


@pytest.mark.parametrize("name", sorted(_validation_systems()))
def test_exact_validation_decisions_equal_the_radical_reference(name):
    """Trace one, positive definiteness and injectivity as the trace and the cofactor reference decide them."""
    system = _validation_systems()[name]()
    e = system.energy
    report = validate(system)
    assert report.trace_ok == (np.trace(e) - 1).is_zero()
    assert report.positive_definite == (
        bool(np.array_equal(e, e.T)) and all(x.sign() > 0 for x in laplace_minors(e)))
    assert report.injective == tuple(not laplace_det(a).is_zero() for a in system.maps)


def _report_systems():
    """``_validation_systems()``, three that fail on sg's maps (a wrong weight, the maps 2 A_s, a weight not
    symmetric), a singular weight with a positive corner and a weight whose trace is 1 + sqrt(2)/10, and
    two d = 3 systems: a singular map, and a weight with a positive corner and a vanishing 2 x 2 minor."""
    half, third, sg = Fraction(1, 2), Fraction(1, 3), sg_system()
    eye3 = [[int(i == j) for j in range(3)] for i in range(3)]
    return {
        **_validation_systems(),
        "d3-singular-map": lambda: make_system(
            "ab", [eye3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]]], [[third * x for x in row] for row in eye3], EXACT),
        "d3-singular-weight": lambda: make_system(
            "a", [eye3], [[third, third, 0], [third, third, 0], [0, 0, third]], EXACT),
        "singular-weight": lambda: make_system("a", [[[1, 0], [0, 1]]], [[half, half], [half, half]], EXACT),
        "irrational-trace": lambda: make_system(
            "a", [[[1, 0], [0, 1]]], [[half, 0], [0, half + Radical.root(2) / 10]], EXACT),
        "sg-weight-9/10": lambda: make_system(
            sg.alphabet, sg.maps, [[Fraction(9, 10), 0], [0, Fraction(1, 10)]], EXACT),
        "sg-doubled-maps": lambda: make_system(sg.alphabet, [2 * a for a in sg.maps], sg.energy, EXACT),
        "sg-weight-not-symmetric": lambda: make_system(
            sg.alphabet, sg.maps, [[half, Fraction(1, 4)], [0, half]], EXACT),
    }


REPORTS = GOLDEN / "validation-reports.json"


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
@pytest.mark.parametrize("name", sorted(_report_systems()))
def test_validation_report_is_pinned(name, backend):
    """Every report field, the residual floats and the offending eigenvalue included, and the printed lines.

    The golden holds the reports of the validation that packed the maps in
    their own field and formed both residuals by stacked products there.
    """
    system = _report_systems()[name]()
    report = validate(system if backend == EXACT else to_float_system(system))
    got = json.loads(json.dumps({**dataclasses.asdict(report), "lines": report.lines()}, default=np.generic.item))
    assert got == json.loads(REPORTS.read_text(encoding="utf-8"))[f"{name}/{backend}"]


def _raw_maps(draw):
    """Integer raw maps that exact ``renormalize`` accepts.

    d = 1: 2..4 positive integers.  d = 2: an integer unimodular conjugate
    (two random shears) of a raw base, rescaled and relabelled, as
    ``_random_raw`` draws for seed % 4 == 0.
    """
    if draw(st.booleans()):
        return [[[draw(st.integers(1, 9))]] for _ in range(draw(st.integers(2, 4)))]
    u = np.eye(2, dtype=np.int64)
    for _ in range(2):
        a, b = draw(st.sampled_from([-2, -1, 1, 2])), draw(st.sampled_from([-2, -1, 1, 2]))
        u = u @ np.array([[1, a], [0, 1]]) @ np.array([[1, 0], [b, 1]])
    inv = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]])
    base, scale = RAW_BASES[draw(st.integers(0, 2))], draw(st.integers(1, 3))
    return [(scale * u @ np.array(base[s]) @ inv).tolist() for s in draw(st.permutations(range(3)))]


@st.composite
def _validation_inputs(draw):
    """A renormalized system of random integer raw maps, or ``_diagonal_d3``; then, in most draws, one entry
    of one map or of the weight moved by a small rational times 1, sqrt(2) or sqrt(3)."""
    system = _diagonal_d3() if draw(st.integers(0, 5)) == 0 else renormalize(_raw_maps(draw), EXACT)
    maps, energy = [np.array(a) for a in system.maps], np.array(system.energy)
    d = system.dim
    target = draw(st.sampled_from([None, "weight", *range(len(maps))]))
    if target is not None:
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        step = Fraction(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.integers(1, 7)))
        step = step * Radical.root(draw(st.sampled_from([1, 2, 3])))
        mat = energy if target == "weight" else maps[target]
        mat[i, j] = mat[i, j] + step
    return make_system(system.alphabet, maps, energy, EXACT)


@settings(max_examples=40, deadline=None)
@given(_validation_inputs())
def test_validation_equals_the_full_matrix_reference(system):
    """Each decision as cofactors and full-matrix residuals decide it; the printed residuals are their norms."""
    e, ident = system.energy, np.eye(system.dim, dtype=int).astype(object)
    star = frobenius_sq(apply_M_star(system, e) - e)
    norm = frobenius_sq(apply_M(system, ident) - ident)
    report = validate(system)
    assert (report.invariance_ok, report.normalization_ok) == (star.is_zero(), norm.is_zero())
    assert (report.invariance_residual, report.normalization_residual) == (math.sqrt(star), math.sqrt(norm))
    assert report.trace_ok == (np.trace(e) - 1).is_zero()
    sym = bool(np.array_equal(e, e.T))
    assert report.weight_symmetric == sym
    assert report.positive_definite == (sym and all(x.sign() > 0 for x in laplace_minors(e)))
    assert report.injective == tuple(not laplace_det(a).is_zero() for a in system.maps)
    flt = to_float_system(system)
    f_report = validate(flt)
    assert f_report.invariance_residual == math.sqrt(frobenius_sq(apply_M_star(flt, flt.energy) - flt.energy))
    assert f_report.normalization_residual == math.sqrt(
        frobenius_sq(apply_M(flt, np.eye(system.dim)) - np.eye(system.dim)))


def test_exact_validation_takes_no_radical_arithmetic(sg3, monkeypatch):
    """validate(sg3) decides every check on packed integer coordinates: no Radical product, division or inverse."""
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "_inverse"):
        orig = getattr(Radical, name)
        monkeypatch.setattr(Radical, name, lambda *a, orig=orig, name=name: calls.append(name) or orig(*a))
    assert Radical(2) * Radical(3) / Radical(5) == Fraction(6, 5) and calls
    calls.clear()
    assert validate(sg3).ok and calls == []


# 2/281, 3/281, ..., 43/281: sqrt(p/281) = sqrt(281 p)/281 for 14 primes p, so t = 14 and m = 16 384
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def test_field_of_fourteen_generators_is_linear_to_set_up():
    """The field of the t = 14 Bernoulli maps holds m entries per table, and its products agree with Radical."""
    tracemalloc.start()
    try:
        fld = multiquad.Multiquad({281 * p for p in _PRIMES}, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fld.m == 1 << 14 and len(fld.common) == fld.m
    assert peak < 64 << 20  # an m x m table of the common factors would take gigabytes
    roots = [Radical.root(Fraction(p, 281)) for p in _PRIMES]
    x = [[roots[0] * roots[1] + 3 * roots[13], Radical(Fraction(2, 7))],
         [roots[5] - roots[6] * roots[7] * roots[8], roots[12] * roots[2]]]
    y = [[roots[1] * roots[13] - 5, roots[3] * roots[4] * roots[5] * roots[6]],
         [Radical(1), roots[0] * roots[7] + roots[8] * roots[9] * roots[10] * roots[11]]]
    num, den = fld.matmul(fld.pack_array(np.array(x, dtype=object)), fld.pack_array(np.array(y, dtype=object)))
    want = as_matrix(x, EXACT) @ as_matrix(y, EXACT)
    assert (fld.unpack_array(num, den) == want).all()
    a = fld.pack_array(np.array([[roots[4] * roots[13]]], dtype=object))
    assert fld.unpack_array(*fld.matmul(a, a))[0, 0] == Radical(Fraction(11 * 43, 281 ** 2))


def test_sg_energy_values(sg):
    e = sg.energy
    assert e[0, 0] == Fraction(1, 2)
    assert e[1, 1] == Fraction(1, 2)
    assert e[0, 1].is_zero()
    assert sg.maps[0][0, 0] == Radical.root(Fraction(3, 5))
    assert sg.maps[0][1, 1] == Radical.root(Fraction(1, 15))


def test_systems_are_read_only_copies():
    with pytest.raises(ValueError):
        sg_system().maps[0][0, 0] = Radical(1)
    with pytest.raises(ValueError):
        sg_system(FLOAT).energy[0, 0] = 1.0
    for backend in (EXACT, FLOAT):
        ref = sg_system(backend)
        maps, energy = [np.array(a) for a in ref.maps], np.array(ref.energy)
        system = make_system(ref.alphabet, maps, energy, backend)
        maps[0][0, 0] = energy[0, 0] = ref.field.one  # the caller's arrays stay writable
        assert (system.maps[0] == ref.maps[0]).all() and (system.energy == ref.energy).all()


def test_validate_flags_bad_energy(sg):
    bad = make_system(
        sg.alphabet,
        sg.maps,
        as_matrix([[Fraction(9, 10), 0], [0, Fraction(1, 10)]], EXACT),
        EXACT,
    )
    report = validate(bad)
    assert not report.ok
    assert not report.invariance_ok


def test_inner_e_is_an_inner_product(sg):
    rng = np.random.default_rng(7)
    a = _rand_sym(rng, 2)
    b = _rand_sym(rng, 2)
    # symmetry in both arguments holds only through the weight; bilinearity:
    lhs = inner_e(sg, a + b, a + b)
    rhs = inner_e(sg, a, a) + 2 * inner_e(sg, a, b) + inner_e(sg, b, b)
    assert (lhs - rhs).is_zero()
    assert inner_e(sg, a, a).sign() >= 0


def test_averaging_operators_are_adjoint(sg):
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = _rand_sym(rng, 2)
        b = _rand_sym(rng, 2)
        lhs = np.trace(apply_M(sg, a).T @ b)
        rhs = np.trace(a.T @ apply_M_star(sg, b))
        assert (lhs - rhs).is_zero()


def test_energy_fixed_by_forward_average(sg):
    out = apply_M_star(sg, sg.energy)
    diff = out - sg.energy
    assert frobenius_sq(diff).is_zero()


def test_identity_fixed_by_backward_average(sg):
    ident = as_matrix([[Fraction(1), 0], [0, Fraction(1)]], EXACT)
    out = apply_M(sg, ident)
    assert frobenius_sq(out - ident).is_zero()


def test_schatten_norms_exact():
    m = as_matrix([[Fraction(3), 0], [0, Fraction(-1)]], EXACT)
    assert schatten_norm(m, 1) == Radical(4)
    assert schatten_norm(m, "inf") == Radical(3)
    assert schatten_norm(m, 2) == Radical(10).sqrt()


def test_schatten_two_norm_is_exact_when_the_root_stays_in_the_field():
    s2 = Radical.root(2)
    m = as_matrix([[1 + s2, 1], [0, 0]], EXACT)  # |m|_F^2 = 4 + 2 sqrt(2), whose root leaves the field
    norm = schatten_norm(m, 2)
    assert isinstance(norm, float) and norm == pytest.approx(math.sqrt(4 + 2 * math.sqrt(2)), rel=1e-15)
    assert schatten_norm(as_matrix([[s2, 1], [1, 0]], EXACT), 2) == Radical(2)


def test_schatten_norms_float():
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert schatten_norm(m, 1) == pytest.approx(2.0)
    assert schatten_norm(m, 2) == pytest.approx(2.0)
    assert schatten_norm(m, "inf") == pytest.approx(2.0)


def test_schatten_triangle_and_unitary_invariance(sg_float):
    rng = np.random.default_rng(11)
    theta = 0.7
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    for _ in range(25):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        for p in (1, 2, "inf"):
            assert schatten_norm(a + b, p) <= schatten_norm(a, p) + schatten_norm(b, p) + 1e-12
            assert schatten_norm(rot @ a @ rot.T, p) == pytest.approx(
                schatten_norm(a, p), abs=1e-12
            )


def test_bernoulli_system_validates():
    sys_ = bernoulli_system([Fraction(1, 4), Fraction(3, 4)])
    report = validate(sys_)
    assert report.ok
    assert sys_.dim == 1
    assert sys_.maps[0][0, 0] == Radical(Fraction(1, 4)).sqrt()


def test_bernoulli_rejects_negative_prob():
    with pytest.raises(ValueError):
        bernoulli_system([Fraction(3, 2), Fraction(-1, 2)])


def test_bernoulli_bad_sum_fails_validation():
    report = validate(bernoulli_system([Fraction(1, 2), Fraction(1, 3)]))
    assert not report.ok


def test_json_roundtrip_exact(sg):
    data = system_to_json(sg)
    text = json.dumps(data)
    back = system_from_json(json.loads(text))
    assert back.alphabet == sg.alphabet
    assert back.backend == EXACT
    for a, b in zip(back.maps, sg.maps):
        assert frobenius_sq(a - b).is_zero()
    assert frobenius_sq(back.energy - sg.energy).is_zero()


def test_json_roundtrip_float(sg_float):
    back = system_from_json(system_to_json(sg_float))
    assert back.backend == FLOAT
    for a, b in zip(back.maps, sg_float.maps):
        assert np.allclose(a, b)


def test_json_reads_decimals_as_written():
    data = {"alphabet": ["0", "1"], "dim": 1, "backend": EXACT,
            "maps": {"0": [[0.5]], "1": [["1/2*sqrt(3)"]]}, "energy": [[1]]}
    system = system_from_json(data)
    assert system.maps[0][0, 0] == Radical(Fraction(1, 2))
    assert validate(system).ok
    system = system_from_json(dict(data, backend=FLOAT))
    assert system.maps[0][0, 0] == 0.5
    with pytest.raises(ValueError):
        system_from_json(dict(data, energy=[[None]]))
    with pytest.raises(ValueError):
        system_from_json(dict(data, maps={"0": [[1, 2], [3]], "1": [[1]]}))


def test_to_float_system(sg):
    f = to_float_system(sg)
    assert f.backend == FLOAT
    assert np.allclose(f.energy, [[0.5, 0.0], [0.0, 0.5]])
    assert validate(f).ok


def test_make_system_shape_checks(sg):
    with pytest.raises(ValueError):
        make_system(("0",), [as_matrix([[Fraction(1), 0]], EXACT)], sg.energy, EXACT)
    with pytest.raises(ValueError):
        make_system(("0", "0"), list(sg.maps[:2]), sg.energy, EXACT)


def test_forward_average_preserves_weighted_trace(sg):
    rng = np.random.default_rng(17)
    for _ in range(20):
        b = _rand_sym(rng, 2)
        lhs = np.trace(sg.energy @ apply_M(sg, b))
        rhs = np.trace(sg.energy @ b)
        assert (lhs - rhs).is_zero()


def test_forward_average_preserves_psd(sg_float):
    rng = np.random.default_rng(29)
    for _ in range(100):
        r = rng.standard_normal((2, 2))
        b = r.T @ r
        out = apply_M(sg_float, b)
        assert np.linalg.eigvalsh(out).min() >= -1e-12


def test_level_word_sums_are_bi_invariant(sg):
    # sum over all depth-k word matrices W of <W x, W y>_E recovers <x, y>_E
    rng = np.random.default_rng(41)
    for k in range(1, 4):
        mats = []
        for w in all_words(3, k):
            m = as_matrix([[Fraction(1), 0], [0, Fraction(1)]], EXACT)
            for s in w:
                m = sg.maps[s] @ m
            mats.append(m)
        for _ in range(3):
            x = _rand_sym(rng, 2)
            y = _rand_sym(rng, 2)
            total = sum(inner_e(sg, m @ x, m @ y) for m in mats)
            assert (total - inner_e(sg, x, y)).is_zero()
