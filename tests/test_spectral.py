"""Contraction rates, irreducibility constants, and map renormalization."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kusuoka import cli, linalg, multiquad, quadform, spectral
from kusuoka.exactnum import Radical, format_exact, parse_exact
from kusuoka.gasket import generate_system
from kusuoka.linalg import (
    EXACT,
    FLOAT,
    as_matrix,
    exact_eigenvalues_symmetric,
    frobenius_sq,
    to_float_matrix,
)
from kusuoka.matsys import (
    apply_M,
    apply_M_star,
    bernoulli_system,
    inner_e,
    make_system,
    sg_system,
    to_float_system,
    validate,
)
from kusuoka.measure import kusuoka_measure, nu
from kusuoka.spectral import (
    CkResult,
    c_k,
    renormalize,
    spectral_report,
    theta1,
    theta1_schatten,
    theta2,
)
from kusuoka.symbolic import DEFAULT_BUDGET, BudgetError, all_words, word_matrix
from conftest import laplace_det, two_radicand_system


def test_theta1_sg_exact(sg):
    res = theta1(sg)
    assert res.exact == Fraction(4, 5)
    assert res.value == 0.8
    assert res.irreducible
    assert res.part_exact["traceless-symmetric"] == Fraction(4, 5)
    assert res.part_exact["antisymmetric"] == Fraction(3, 5)
    assert "4/5 (exact)" in res.describe()


def test_theta1_sg_part_spectra(sg):
    # with M(I) = I these are the four eigenvalues of M on 2 x 2 matrices
    res = theta1(sg)
    assert res.part_exact == {"traceless-symmetric": Fraction(4, 5), "antisymmetric": Fraction(3, 5)}


def test_theta1_sg_float(sg_float):
    res = theta1(sg_float)
    assert res.exact is None
    assert res.value == pytest.approx(0.8, abs=1e-12)
    assert res.irreducible


def test_theta1_sg3(sg3):
    assert theta1(sg3).exact == Fraction(5, 7)


def test_theta1_bernoulli(bern):
    # dimension one: no trace-free directions at all
    res = theta1(bern)
    assert res.value == 0.0
    assert res.irreducible


def test_theta1_schatten_scalar_action(sg):
    for p in (1, 2, "inf"):
        assert theta1_schatten(sg, p) == Fraction(4, 5)


def test_theta1_schatten_rejects_bad_p(sg):
    with pytest.raises(ValueError):
        theta1_schatten(sg, 0.5)


def _gram_min_eig_2x2(a, b, c):
    # closed-form least eigenvalue of [[a, b], [b, c]]
    half_diff = (a - c) / 2
    disc = (half_diff * half_diff + b * b).sqrt()
    return (a + c) * Fraction(1, 2) - disc


def _gram_oracle(system, k):
    """Independent route to the level-k irreducibility constant for 2x2 systems.

    Uses the explicit trace-free symmetric basis {diag(1,-1), offdiag(1,1)}
    (orthonormal for the weight I/2) and the closed-form 2x2 eigenvalue,
    bypassing the packed kernel and the generic eigensolver.
    """
    sz = as_matrix([[Fraction(1), 0], [0, Fraction(-1)]], EXACT)
    sx = as_matrix([[0, Fraction(1)], [Fraction(1), 0]], EXACT)
    words = [()]
    for _ in range(k):
        words = [w + (s,) for w in words for s in range(system.n_symbols)]
    g = [[Radical(0)] * 2 for _ in range(2)]
    for w in words:
        m = as_matrix([[Fraction(1), 0], [0, Fraction(1)]], EXACT)
        for s in w:
            m = system.maps[s] @ m
        pw = m.T @ system.energy @ m
        t = [np.trace(pw @ b) for b in (sz, sx)]
        for i in range(2):
            for j in range(2):
                g[i][j] = g[i][j] + t[i] * t[j]
    return _gram_min_eig_2x2(g[0][0], g[0][1], g[1][1])


def test_c1_sg_exact(sg):
    res = c_k(sg, 1)
    assert res.applicable
    assert res.exact == Fraction(8, 75)
    assert res.value == pytest.approx(8 / 75, abs=1e-15)
    assert _gram_oracle(sg, 1) == Fraction(8, 75)


def test_c2_sg_exact(sg):
    res = c_k(sg, 2)
    assert res.exact == Fraction(112, 1875)
    assert _gram_oracle(sg, 2) == Fraction(112, 1875)


def test_c1_sg_float(sg_float):
    res = c_k(sg_float, 1)
    assert res.exact is None
    assert res.value == pytest.approx(8 / 75, abs=1e-12)


def test_c1_unit_probes_never_beat_minimum(sg_float):
    # c_k is a minimum over the unit sphere of a quadratic form
    rng = np.random.default_rng(0)
    c1 = c_k(sg_float, 1).value
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    for _ in range(500):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        f = x[0] * sz + x[1] * sx
        val = sum(
            np.trace(a.T @ sg_float.energy @ a @ f) ** 2 for a in sg_float.maps
        )
        assert val >= c1 - 1e-12


def test_ck_not_applicable_in_dim_one(bern):
    res = c_k(bern, 1)
    assert not res.applicable
    assert res.value is None


def test_ck_rejects_k_zero(sg):
    with pytest.raises(ValueError):
        c_k(sg, 0)


def test_theta2_sg(sg):
    res = theta2(sg, k_max=2)
    assert res.applicable
    assert res.irreducibility_ok
    assert (res.lemma_exact * res.lemma_exact - Radical(Fraction(67, 75))).is_zero()
    assert res.lemma_value == pytest.approx((67 / 75) ** 0.5, abs=1e-15)
    assert res.thm_exact == Fraction(67, 75)
    assert res.c_values[2].exact == Fraction(112, 1875)


def test_theta2_takes_the_lemma_root_only(sg, monkeypatch):
    """k = 1 wins on sg, so the one square root taken is the lemma's sqrt(1 - c_1)."""
    roots, sqrt = [], linalg.FIELDS[EXACT].sqrt
    monkeypatch.setattr(type(linalg.FIELDS[EXACT]), "sqrt", lambda self, x: roots.append(x) or sqrt(x))
    res = theta2(sg, k_max=2)
    assert roots == [Fraction(67, 75)]
    assert res.thm_exact == Fraction(67, 75)


def test_theta2_theorem_from_k2_when_it_wins():
    """Raw maps whose sqrt(1 - c_2) undercuts 1 - c_1: the theorem rate is that exact root."""
    raw = [[[2, 2], [0, -1]], [[1, 0], [-1, -2]], [[-2, 2], [-1, 2]]]
    res = theta2(renormalize([as_matrix(m, EXACT) for m in raw]), k_max=2)
    c1, c2 = res.c_values[1].exact, res.c_values[2].exact
    assert (c1, c2) == (Fraction(521, 178802), Fraction(194333, 30217538))
    assert res.thm_value < 1 - float(c1)
    assert res.thm_exact.sign() > 0 and (res.thm_exact * res.thm_exact - (1 - c2)).is_zero()
    assert res.thm_value == pytest.approx(float(res.thm_exact), abs=1e-15)


def test_theta2_bernoulli(bern):
    res = theta2(bern, k_max=1)
    assert not res.applicable
    assert res.lemma_value is None


def test_spectral_report_sg(sg):
    rep = spectral_report(sg, k_max=2)
    assert rep.theta1.exact == Fraction(4, 5)
    assert all(rep.theta1_p[p] == Fraction(4, 5) for p in ("1", "2", "inf"))
    assert rep.theta2.thm_exact == Fraction(67, 75)


def _two_symbol_swap_system():
    # diag(sqrt(p), sqrt(q)) and its coordinate swap: valid, symmetric,
    # but the averaging map acts with distinct rates on the two trace-free
    # symmetric directions, so no scalar shortcut applies
    p, q = 0.25, 0.75
    a0 = np.diag([p**0.5, q**0.5])
    a1 = np.diag([q**0.5, p**0.5])
    return make_system(("0", "1"), [a0, a1], np.eye(2) / 2, FLOAT)


def test_theta1_schatten_probe_path():
    sys_ = _two_symbol_swap_system()
    assert validate(sys_).ok
    # rates on the two directions are 1 and 2 sqrt(pq) = sqrt(3)/2
    got = theta1_schatten(sys_, 2, trials=128, seed=4)
    assert 0.99 <= got <= 1.0 + 1e-9
    assert not theta1(sys_).irreducible


def test_renormalize_fixes_sg(sg):
    out = renormalize(sg.maps, EXACT, alphabet=sg.alphabet)
    assert out.alphabet == sg.alphabet
    for a, b in zip(out.maps, sg.maps):
        assert frobenius_sq(a - b).is_zero()
    assert frobenius_sq(out.energy - sg.energy).is_zero()


def _raw_gasket_maps():
    d0 = as_matrix([[Fraction(3, 5), 0], [0, Fraction(1, 5)]], EXACT)
    half = Radical(Fraction(-1, 2))
    s32 = Radical.root(Fraction(3, 4))
    rot = np.empty((2, 2), dtype=object)
    rot[0, 0], rot[0, 1] = half, -s32
    rot[1, 0], rot[1, 1] = s32, half
    d1 = rot @ d0 @ rot.T
    d2 = rot @ d1 @ rot.T
    return [d0, d1, d2]


def test_renormalize_raw_gasket_exact(sg):
    out = renormalize(_raw_gasket_maps(), EXACT)
    report = validate(out)
    assert report.ok
    assert report.invariance_residual == 0.0
    assert theta1(out).exact == Fraction(4, 5)
    m = kusuoka_measure(out)
    assert nu(m, (0,)) == Fraction(1, 3)


def test_renormalize_scale_invariant():
    raws = _raw_gasket_maps()
    base = renormalize(raws, EXACT)
    for t in (Fraction(1, 3), Fraction(2), Fraction(10)):
        scaled = renormalize([Radical(t) * a for a in raws], EXACT)
        for a, b in zip(scaled.maps, base.maps):
            assert frobenius_sq(a - b).is_zero()
        assert frobenius_sq(scaled.energy - base.energy).is_zero()


def test_renormalize_float_path():
    raws = [to_float_matrix(a) for a in _raw_gasket_maps()]
    out = renormalize(raws, FLOAT)
    assert validate(out).ok
    assert theta1(out).value == pytest.approx(0.8, abs=1e-9)


def test_renormalize_rejects_singular():
    bad = [as_matrix([[Fraction(1), 0], [0, Fraction(0)]], EXACT)]
    with pytest.raises(ValueError):
        renormalize(bad, EXACT)
    # float: singular against the size of the entries, at every scale
    for t in (1e-8, 1.0, 1e8):
        for small in (0.0, 1e-12):
            with pytest.raises(ValueError, match="raw maps must be injective"):
                renormalize([t * np.diag([1.0, small])], FLOAT)


def test_renormalize_rejects_degenerate_fixed_space():
    ident = as_matrix([[Fraction(1), 0], [0, Fraction(1)]], EXACT)
    with pytest.raises(ValueError):
        renormalize([ident], EXACT)


def test_theta1_below_one_whenever_c1_positive(sg, sg3):
    for system in (sg, sg3):
        c1 = c_k(system, 1)
        assert c1.applicable and float(c1.value) > 0
        assert float(theta1(system).value) < 1


def test_averaging_shrinks_top_eigenvalue(sg_float):
    # conjugation-average of a trace-free symmetric matrix never raises
    # the largest eigenvalue
    rng = np.random.default_rng(11)
    for system in (sg_float, generate_system(3, FLOAT)):
        for _ in range(100):
            x = rng.standard_normal(2)
            b = np.array([[x[0], x[1]], [x[1], -x[0]]])
            top_in = np.linalg.eigvalsh(b).max()
            top_out = np.linalg.eigvalsh(apply_M(system, b)).max()
            assert top_out <= top_in + 1e-12


def test_c2_unit_probes_never_beat_minimum(sg_float):
    rng = np.random.default_rng(5)
    c2 = c_k(sg_float, 2).value
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    mats = [b @ a for a in sg_float.maps for b in sg_float.maps]
    for _ in range(1000):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        f = x[0] * sz + x[1] * sx
        val = sum(np.trace(m.T @ sg_float.energy @ m @ f) ** 2 for m in mats)
        assert val >= c2 - 1e-12


# -- the packed operators and c_k against per-word references ---------------

# The raw bases of the certify benchmark: integer maps whose renormalized
# weight is not diagonal, with their exact theta1 and float c_1.
RAW_BASES = (
    (((2, -2), (-2, 3)), ((2, 2), (0, 3)), ((-3, -2), (0, -3))),
    (((1, -3), (0, -1)), ((1, 3), (-2, 1)), ((0, -2), (1, 1))),
    (((0, 3), (1, -2)), ((2, -1), (0, -3)), ((-2, -1), (1, 2))),
)
RAW_THETA1 = ("1/29*sqrt(471)", "6/13*sqrt(2)", "12/19")
RAW_C1 = (0.003952927702605841, 0.029316672798672297, 0.00985338922990005)


def _raw_system(base, backend=EXACT):
    return renormalize([[list(r) for r in a] for a in RAW_BASES[base]], backend)


def _units(system, antisymmetric=False):
    """The packed units u_q as d x d matrices, with their (i, j), built here."""
    d, fld = system.dim, system.field
    out = []
    for i in range(d):
        for j in range(i + antisymmetric, d):
            u = fld.zeros((d, d))
            u[i, j] = fld.one
            u[j, i] = -fld.one if antisymmetric else fld.one
            out.append(((i, j), u))
    return out


def _trace_free_columns(system):
    """The kernel's trace-free basis f_q as the columns of a D x (D-1) matrix of the backend."""
    q = quadform._Quad(system)
    num, den = q.trace_free
    return np.array(q.unpack(num.reshape(-1, q.m), den), dtype=system.field.dtype).reshape(len(num), -1).T


@pytest.mark.parametrize("build", [sg_system, lambda: _raw_system(0)], ids=["sg", "raw0"])
@pytest.mark.parametrize("antisymmetric", [False, True], ids=["sym", "anti"])
def test_psi_matrices_are_the_averaging_maps(build, antisymmetric):
    """M and M* on packed columns, as renormalize (symmetric) and the kernel's theta1 reps (both parts) form them."""
    system = build()
    units = _units(system, antisymmetric)
    # M* is M of the transposed maps; E only picks the field the reps are formed in
    transposed = make_system(system.alphabet, [a.T for a in system.maps], system.energy, system.backend)
    if antisymmetric:
        r = quadform._Quad(system).theta1_reps[1]
        r_star = quadform._Quad(transposed).theta1_reps[1]
    else:
        r = quadform.averaging_matrix(system.maps)
        r_star = quadform.averaging_matrix(transposed.maps)
    for q, (_, u) in enumerate(units):
        assert list(r[:, q]) == [apply_M(system, u)[i, j] for (i, j), _ in units]
        assert list(r_star[:, q]) == [apply_M_star(system, u)[i, j] for (i, j), _ in units]
    if not antisymmetric:  # M(I) = I, and theta1's symmetric rep is M in the trace-free basis
        ident = system.field.array([system.field.one if i == j else system.field.zero for (i, j), _ in units])
        assert list(r @ ident) == list(ident)
        assert quadform._Quad(system).theta1_reps[0].tolist() == (r @ _trace_free_columns(system))[1:].tolist()


def _psi_products(maps):
    """Psi_s(u_q)[p] as sums of products of map entries, in the maps' scalars: (n, D, D) in [s, p, q] order."""
    pairs = quadform.packed_pairs(maps[0].shape[0])
    out = []
    for a in maps:
        for p, r in pairs:
            for i, j in pairs:
                out.append(a[p, i] * a[r, j] + a[p, j] * a[r, i] if i != j else a[p, i] * a[r, i])
    return np.array(out, dtype=maps[0].dtype).reshape(len(maps), len(pairs), len(pairs))


def _diagonal_d3():
    """An exact d = 3 system with diagonal maps in Q(sqrt 2, sqrt 3, sqrt 5, sqrt 7) and E = I/3.

    The maps are diag(sqrt(i / (2i + 1))) and diag(sqrt((i + 1) / (2i + 1))), i = 1, 2, 3,
    so their squares sum to I.
    """
    maps = [[[Radical.root(Fraction(i + k, 2 * i + 1)) if i == j else 0 for j in range(1, 4)]
             for i in range(1, 4)] for k in (0, 1)]
    return make_system("ab", maps, [[Fraction(1, 3) if i == j else 0 for j in range(3)] for i in range(3)], EXACT)


_KERNEL_SYSTEMS = {
    "sg": sg_system,
    **{f"sg{n}": (lambda n=n: generate_system(n)) for n in range(3, 7)},
    **{f"raw{b}": (lambda b=b: _raw_system(b)) for b in range(len(RAW_BASES))},
    "bernoulli": lambda: bernoulli_system([Fraction(1, 3), Fraction(2, 3)]),
    "diagonal-d3": _diagonal_d3,
    "sg-float": lambda: sg_system(FLOAT),
}


@pytest.mark.parametrize("name", _KERNEL_SYSTEMS)
def test_kernel_is_the_packing_of_psi_products(name):
    """gens, Psi, the Psi* entries, E and I of the kernel equal the packing of Psi_s built from products of map entries."""
    system = _KERNEL_SYSTEMS[name]()
    q = quadform._Quad(system)
    d, n, m = system.dim, system.n_symbols, q.m
    dd = d * (d + 1) // 2
    psi = _psi_products(system.maps)
    psi_star = _psi_products([a.T for a in system.maps])  # Psi*_s(u_q)[p]
    e = [system.energy[i, j] for i, j in quadform.packed_pairs(d)]
    ref = multiquad.Multiquad(multiquad._radicands(list(psi.ravel()) + e), system.field.exact)
    assert q.gens == ref.gens
    if name.startswith("sg") and name != "sg-float":
        assert q.gens == [3]
    op, den = q.psi
    num, want_den = ref._pack_scalars(list(psi.ravel()))
    # row q*m of an operator is its image of u_q, with coordinates (p, k) on the columns
    want = num.reshape(n, dd, dd, m).transpose(0, 2, 1, 3).reshape(n, dd, dd * m)
    assert den == want_den and op[:, ::m].tolist() == want.tolist()
    # entry [p, s*D + q] of the adjoint stack is coordinate q of Psi*_s(u_p)
    num, want_den = ref._pack_scalars(list(psi_star.transpose(2, 0, 1).ravel()))
    entries, den = q.psi_star_entries
    assert den == want_den and entries.tolist() == num.reshape(dd, n * dd, m).tolist()
    for (num, den), mat in ((q.energy, system.energy), (q.ident, system.field.identity(d))):
        want, want_den = ref._pack_scalars([mat[i, j] for i, j in quadform.packed_pairs(d)])
        assert den == want_den and num.tolist() == want.reshape(1, -1).tolist()


def test_psi_of_many_roots_needs_no_field_of_them_all():
    """Each Bernoulli map sqrt(p_s) uses one root: Psi multiplies only those, not 2^n field coordinates."""
    system = bernoulli_system([Fraction(w, 78) for w in range(1, 13)])
    packed = quadform._pack_maps(system.maps)
    assert packed.a.shape[-1] >= 8 and len(packed.terms) == packed.a.shape[-1] and packed.prod.m == 1
    assert quadform._Quad(system).m == 1
    assert quadform.averaging_matrix(system.maps).tolist() == [[1]]


def test_averaging_reps_of_dimension_one_are_empty(bern, monkeypatch):
    """d = 1 has no trace-free or antisymmetric direction: theta1 alone packs nothing, a kernel's reps nothing more."""
    q = quadform._Quad(bern)
    monkeypatch.setattr(quadform, "_pack_maps", None)
    monkeypatch.setattr(quadform, "_psi", None)
    assert [(r.shape, r.dtype) for r in q.theta1_reps] == [((0, 0), object)] * 2
    assert theta1(bern) == q.theta1


def test_psi_takes_no_radical_product(monkeypatch):
    """Psi and the tables of the kernel and the two reps of theta1 are formed on integer coordinates only."""
    sg6 = generate_system(6)
    calls = []
    mul = Radical.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Radical, "__mul__", counted)
    monkeypatch.setattr(Radical, "__rmul__", counted)
    assert Radical(2) * Radical(3) == 3 * Radical(2) and len(calls) == 2
    calls.clear()
    q = quadform._Quad(sg6)
    assert [q.psi, q.psi_star_entries, q.m_star_sum, q.energy, q.ident] and calls == []
    assert q.theta1_reps and calls == []
    assert q.theta1.exact is not None


def test_theta1_alone_builds_no_operator_table(monkeypatch):
    """theta1 reads Psi summed in its own field: no Psi operator table or Psi* entries of the kernel are built."""
    sg6 = generate_system(6)
    want = theta1(sg6)

    def table(self):
        raise AssertionError("operator table built for theta1")

    for name in ("_psi_mul", "psi", "psi_star_entries", "m_star_sum"):
        monkeypatch.setattr(quadform._Quad, name, property(table))
    assert theta1(sg6) == want and want.exact is not None
    with pytest.raises(AssertionError):
        quadform._Quad(sg6).psi


def _psi_star_table(q):
    """Psi*_s as the (n, D*m, D*m) operator table the kernel built before it read the adjoint off its entries."""
    mul, den = q._psi_mul
    w = np.array(q.weight, dtype=mul.dtype)
    adj = mul * (2 * w[:, None] // w[None, :])[None, :, :, None, None]
    return q._reduce(adj.transpose(0, 1, 3, 2, 4).reshape(q.n, len(q.e) * q.m, -1), 2 * den)


def _same_stack(x, y):
    """Two stacks agree in numerators and denominator: exactly on exact coordinates, bit for bit on floats."""
    (xn, xd), (yn, yd) = x, y
    return xd == yd and xn.shape == yn.shape and (
        xn.tolist() == yn.tolist() if xn.dtype == object else xn.tobytes() == yn.tobytes())


@pytest.mark.parametrize("name", _KERNEL_SYSTEMS)
def test_adjoint_entries_act_as_the_operator_table(name):
    """parents and M* from the Psi* entries equal the table's products, in the same bits on the float backend."""
    q = quadform._Quad(_KERNEL_SYSTEMS[name]())
    table, den = _psi_star_table(q)
    rows = q.join([q.energy, q.ident, q.children(q.energy)])
    out = rows[0] @ table.transpose(1, 0, 2).reshape(table.shape[1], -1)
    want = q._reduce(out.reshape(len(out), q.n, -1).transpose(1, 0, 2).reshape(-1, table.shape[1]), rows[1] * den)
    assert _same_stack(q.parents(rows), want)
    assert _same_stack(q.m_star_sum, (table.sum(axis=0), den))


def test_betas_are_the_word_beta_weights(sg3):
    q = quadform._Quad(sg3)
    for k, (num, den) in enumerate(q.betas(3)):
        got = q.unpack_matrices(num, den, sg3.field)
        assert len(got) == sg3.n_symbols**k
        for w, b in zip(all_words(sg3.n_symbols, k), got):
            a = word_matrix(sg3, w)
            assert (b == a.T @ sg3.energy @ a).all()


@pytest.mark.parametrize("build", [sg_system, lambda: _raw_system(0)], ids=["sg", "raw0"])
def test_trace_free_basis(build):
    system = build()
    ident = system.field.identity(system.dim)
    q = quadform._Quad(system)
    mats = q.unpack_matrices(*q.trace_free, system.field)
    assert len(mats) == 2
    for a in mats:
        assert inner_e(system, a, ident).is_zero()
    assert laplace_det(system.field.array([[inner_e(system, a, b) for b in mats] for a in mats])).sign() > 0


def _projected_units(system):
    """A trace-free symmetric basis of this test's own: each unit but e_00 minus its E-component along I."""
    ident = system.field.identity(system.dim)
    scale = inner_e(system, ident, ident)
    return [u - (inner_e(system, u, ident) / scale) * ident for (i, j), u in _units(system) if (i, j) != (0, 0)]


def _packed_basis(system):
    """The basis f_q = u_q - (Tr(E u_q) / E_00) e_00, q >= 1, that ``c_k`` pairs with."""
    units = _units(system)
    e00 = units[0][1]
    ident = system.field.identity(system.dim)
    return [u - (inner_e(system, u, ident) / system.energy[0, 0]) * e00 for _, u in units[1:]]


def _per_word_forms(system, k, basis):
    """(H, G') over ``basis``: H_ij = <f_i, f_j>_E, and G' summed word by word.

    Every level-k word matrix, its beta-weight A^T E A and the pairings with
    the basis are matrices and scalars of the backend.
    """
    m = len(basis)
    h = system.field.array([[inner_e(system, a, b) for b in basis] for a in basis])
    gram = system.field.zeros((m, m))
    for w in all_words(system.n_symbols, k):
        a = word_matrix(system, w)
        pw = a.T @ system.energy @ a
        t = [np.trace(pw @ b) for b in basis]
        for i in range(m):
            for j in range(m):
                gram[i, j] = gram[i, j] + t[i] * t[j]
    return h, gram


def _ck_reference(system, k):
    """c_k as the least eigenvalue of H^-1 G' over ``_projected_units``."""
    basis = _projected_units(system)
    if not basis:
        return CkResult(k, False, None, None)
    h, gram = _per_word_forms(system, k, basis)
    if system.backend == EXACT:
        eigs = exact_eigenvalues_symmetric(multiquad.solve(h, gram))
        if eigs is not None:
            low = min(eigs)
            return CkResult(k, True, float(low), low)
    vals = np.linalg.eigvals(np.linalg.solve(to_float_matrix(h), to_float_matrix(gram)))
    return CkResult(k, True, float(min(vals.real)), None)


def _assert_ck_matches(got, want):
    assert (got.k, got.applicable, got.exact) == (want.k, want.applicable, want.exact)
    if want.exact is not None or not want.applicable:
        assert got.value == want.value
    else:
        assert got.value == pytest.approx(want.value, rel=1e-12)


def _pythagorean_system():
    """Rational maps and weight, E = diag(1/4, 3/4): the kernel's field is Q."""
    maps = [[[Fraction(3, 5), 0], [0, Fraction(5, 13)]], [[Fraction(4, 5), 0], [0, Fraction(12, 13)]]]
    energy = [[Fraction(1, 4), 0], [0, Fraction(3, 4)]]
    return make_system(("a", "b"), [as_matrix(a, EXACT) for a in maps], as_matrix(energy, EXACT), EXACT)


_CK_SYSTEMS = {
    "sg": (sg_system, 3),
    **{f"sg{n}": ((lambda n=n: generate_system(n)), 2) for n in (3, 4, 5, 6)},
    "bernoulli": (lambda: bernoulli_system([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]), 2),
    "two-radicand": (two_radicand_system, 2),
    "pythagorean": (_pythagorean_system, 2),
    **{f"raw{b}": ((lambda b=b: _raw_system(b)), 2) for b in range(len(RAW_BASES))},
    "diagonal-d3": (_diagonal_d3, 2),
}


@pytest.mark.parametrize("name", sorted(_CK_SYSTEMS))
def test_ck_equals_per_word_reference(name):
    build, k_max = _CK_SYSTEMS[name]
    system = build()
    assert validate(system).ok
    forms = spectral._grams(system, range(1, k_max + 1), DEFAULT_BUDGET)
    for k in range(1, k_max + 1):
        want = _ck_reference(system, k)
        _assert_ck_matches(c_k(system, k), want)
        if not want.applicable:
            assert forms is None
        else:
            h, grams = forms.unpack()
            want_h, want_gram = _per_word_forms(system, k, _packed_basis(system))
            assert (h == want_h).all()
            assert (grams[k] == want_gram).all()
    assert theta2(system, k_max).c_values == {k: c_k(system, k) for k in range(1, k_max + 1)}


def test_ck_solves_against_a_non_identity_h():
    # c_k is a formula in any maps and weight; these (not a valid system)
    # give H = diag(1, 3) and a Gram matrix with an off-diagonal entry, so the
    # least eigenvalue is that of H^-1 G', not of G'
    maps = [[[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(1, 2)]],
            [[Fraction(1, 3), 0], [Fraction(1, 4), Fraction(2, 3)]]]
    energy = [[Fraction(1, 4), 0], [0, Fraction(3, 4)]]
    system = make_system(("a", "b"), [as_matrix(a, EXACT) for a in maps], as_matrix(energy, EXACT), EXACT)
    for k in (1, 2):
        h, grams = spectral._grams(system, (k,), DEFAULT_BUDGET).unpack()
        want_h, want_gram = _per_word_forms(system, k, _packed_basis(system))
        assert (h == as_matrix([[1, 0], [0, 3]], EXACT)).all() and (h == want_h).all()
        assert not want_gram[0, 1].is_zero()
        assert (grams[k] == want_gram).all()
        _assert_ck_matches(c_k(system, k), _ck_reference(system, k))


@pytest.mark.parametrize("name", ["sg", "sg5", "raw0", "raw1", "two-radicand", "pythagorean", "diagonal-d3"])
def test_exact_ck_has_no_radical_arithmetic_before_the_unpack(name, monkeypatch):
    """c_k and theta2 stay on packed stacks until the final scalars are unpacked.

    For d = 2 these are each level's half-trace, determinant and discriminant of H^-1 G'_k, unpacked one
    at a time and split by ``linalg._pair_split``: no elimination and no ``np.roots``.  For d = 3
    (diagonal-d3) they are each level's r x r solution of the one elimination.
    """
    build, k_max = _CK_SYSTEMS[name]
    system = build()
    r = system.dim * (system.dim + 1) // 2 - 1
    events = []
    for op in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "_inverse"):
        monkeypatch.setattr(Radical, op, lambda *a, real=getattr(Radical, op), op=op: events.append(op) or real(*a))
    real_unpack, real_eigs = multiquad._Span.unpack, linalg.exact_eigenvalues_symmetric
    real_split, real_elim, real_roots = linalg._pair_split, multiquad.Multiquad.eliminate, np.roots
    monkeypatch.setattr(multiquad._Span, "unpack", lambda self, num, den: events.append(("unpack", len(num)))
                        or real_unpack(self, num, den))
    monkeypatch.setattr(linalg, "exact_eigenvalues_symmetric", lambda m: events.append("eigen") or real_eigs(m))
    monkeypatch.setattr(linalg, "_pair_split", lambda *x: events.append("split") or real_split(*x))
    monkeypatch.setattr(multiquad.Multiquad, "eliminate", lambda self, a: events.append("eliminate")
                        or real_elim(self, a))
    monkeypatch.setattr(np, "roots", lambda p: events.append("roots") or real_roots(p))
    for levels, call in ((1, lambda: c_k(system, 1)), (k_max, lambda: theta2(system, k_max))):
        events.clear()
        call()
        if r == 2:
            assert "eliminate" not in events and "roots" not in events
            assert events[:events.index("split")] == [("unpack", 1)] * 3
            last = len(events) - events[::-1].index("split")
            assert [e for e in events[:last] if e == "split" or e[0] == "unpack"] == \
                ([("unpack", 1)] * 3 + ["split"]) * levels
        else:
            assert events[:events.index("eigen")] == ["eliminate", ("unpack", r * r)]


@pytest.mark.parametrize("seed", range(6))
def test_float_h_adds_in_the_matrix_order(seed):
    """The packed float H is, bit for bit, [(f_i * (E @ f_j)).sum()] over the unpacked trace-free basis."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    energy = rng.standard_normal((d, d))
    system = make_system("abc", [rng.standard_normal((d, d)) for _ in range(3)],
                         energy @ energy.T + d * np.eye(d), FLOAT)
    q = quadform._Quad(system)
    mats = q.unpack_matrices(*q.trace_free, system.field)
    want = np.array([[(a * (system.energy @ b)).sum() for b in mats] for a in mats])
    assert q.unpack_array(*q.trace_free_gram).tobytes() == want.tobytes()


def test_theta2_eliminates_once_in_the_smallest_field(monkeypatch):
    """theta2 of the d = 3 diagonal system solves [H | G'_1 | G'_2] in one elimination over Q, though its
    kernel carries four square roots."""
    system = _diagonal_d3()
    assert len(quadform._Quad(system).gens) == 4
    shapes = []
    real = multiquad.Multiquad.eliminate
    monkeypatch.setattr(multiquad.Multiquad, "eliminate", lambda self, a: shapes.append((a.shape, self.gens))
                        or real(self, a))
    theta2(system, 2)
    assert shapes == [((1, 5, 15, 1), [])]


def test_theta2_splits_every_level_by_one_pencil_in_the_smallest_field(monkeypatch):
    """theta2(sg5, 2) takes the closed form of both pencils det(G'_k - t H) in one call over Q, though its
    kernel carries sqrt 3; nothing is eliminated."""
    system = generate_system(5)
    assert quadform._Quad(system).gens == [3]
    calls = []
    real = linalg.pencil_spectra
    monkeypatch.setattr(linalg, "pencil_spectra", lambda fld, g, h: calls.append((fld.gens, g.shape, h.shape))
                        or real(fld, g, h))
    monkeypatch.setattr(multiquad.Multiquad, "eliminate", None)
    res = theta2(system, 2)
    assert calls == [([], (2, 2, 2, 1), (2, 2, 2, 1))]
    assert [format_exact(res.c_values[k].exact) for k in (1, 2)] == [
        "17477622230/321986901963", "326399361013190165320/34558521678576857751123"]


def _radical_split_2x2(m):
    """(reals, moduli, certified) of a 2 x 2 Radical matrix by Radical arithmetic, the route before the
    packed closed form.  A complex pair went through char_poly, whose coefficients are det and -tr, and a
    rational root search that finds no root of it."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = tr * tr - 4 * det
    if disc.sign() >= 0:
        try:
            sq = disc.sqrt()
        except ValueError:
            return [], [], False
        return [(tr + sq) / 2, (tr - sq) / 2], [], True
    if not (tr.is_rational() and det.is_rational()):
        return [], [], False
    try:
        return [], [Radical.root(det.as_fraction())], True
    except ValueError:
        return [], [], False


def _eliminated_ck(forms) -> dict:
    """Exact c_k of every level by the route before the closed form: one elimination of [H | G'_1 | ...]
    in the smallest field, then each r x r solution unpacked and split in Radical arithmetic; None where
    the split declines."""
    fld, r = forms.fld, len(forms.num)
    small = multiquad.field_of(frozenset(fld.used(forms.num)), True)
    _, det, (x, den) = small.eliminate(small._convert(fld, forms.num, forms.den)[0][None])
    out = {}
    for i, k in enumerate(forms.levels, 1):
        sol = small.unpack_array(x[0, :, i * r:(i + 1) * r], den)
        if r == 2:
            reals, moduli, ok = _radical_split_2x2(sol)
            eigs = reals if ok and not moduli else None
        else:
            eigs = exact_eigenvalues_symmetric(sol)
        out[k] = min(eigs) if eigs is not None else None
    return out


def _split_systems() -> dict:
    """sg ... sg6, the 15 seeded raws that exact renormalize accepts among seeds 0-59 (the golden's, all
    unimodular conjugates of the raw bases, as the certify benchmark's raws are), the first 10 it accepts
    from seed 60 on, and the two-radicand system: 31 systems."""
    out = {"sg": sg_system(), **{f"sg{n}": generate_system(n) for n in range(3, 7)}}
    for seed in range(100):
        if len(out) == 30:
            break
        try:
            out[f"seed{seed}"] = renormalize(_random_raw(seed), EXACT)
        except ValueError:
            continue
    out["two-radicand"] = two_radicand_system()
    assert len(out) == 31 and sum(name.startswith("seed") for name in out) == 25
    return out


def test_closed_form_agrees_with_the_elimination_route():
    """c_1 ... c_3 by the packed pencil and theta1's 2 x 2 parts by the packed closed form equal, bit for
    bit, the elimination route and the Radical split on 31 systems and the d = 3 diagonal system; the
    set holds a complex-pair theta1 (6/13 sqrt 2) and a surd discriminant that declines (c_2 of raw base 1's
    conjugates)."""
    systems = {**_split_systems(), "diagonal-d3": _diagonal_d3()}
    declined, complex_pairs = 0, 0
    for name, system in systems.items():
        forms = spectral._grams(system, (1, 2, 3), DEFAULT_BUDGET)
        want = _eliminated_ck(forms)
        for k, got in spectral._smallest_eigenvalues(forms).items():
            assert got.exact == want[k], (name, k)
            if want[k] is None:
                declined += 1
                assert got.value == pytest.approx(c_k(to_float_system(system), k).value, rel=1e-6)
            else:
                assert format_exact(got.exact) == format_exact(want[k]) and got.value == float(want[k])
        for rep in quadform._Quad(system).theta1_reps:
            if rep.shape != (2, 2):
                continue
            reals, moduli, ok = _radical_split_2x2(rep)
            got = linalg._split_spectrum(rep)
            assert (got[0], got[1], not got[2]) == (reals, moduli, ok), name
            complex_pairs += bool(moduli)
            radius = max([abs(x) for x in reals] + moduli) if ok else None
            assert linalg.certified_spectral_radius(rep)[1] == radius
    assert declined >= 4 and complex_pairs >= 4


def _enumerated_forms(system, levels) -> list:
    """[H, G'_k for k in levels] as (num, den) stacks in the kernel's field, by the route before the second-moment
    recursion: the beta-weight row of every word up to the deepest level (``_Quad.betas``), each paired with the
    trace-free basis (``_Quad.pair``) and the pairings summed by one product over the word axis per pair of
    coordinates."""
    q = quadform._Quad(system)
    forms = [q.trace_free_gram]
    for k, weights in enumerate(q.betas(max(levels))):
        if k in levels:
            num, den = q.pair(weights, q.trace_free)
            out = np.zeros((num.shape[1], num.shape[1], q.m), dtype=num.dtype)
            forms.append((q._products(out, lambda i, j: num[:, :, i].T @ num[:, :, j], num, num), den * den))
    return forms


def _moment_systems() -> dict:
    """The 31 systems of the closed-form test (sg ... sg6, 25 renormalized raws, two-radicand) and the d = 3
    diagonal system."""
    return {**_split_systems(), "diagonal-d3": _diagonal_d3()}


def test_moment_recursion_equals_the_word_enumeration():
    """[H | G'_1 ... G'_4] by the second-moment recursion equal the word enumeration's exactly on 32 systems.
    On the float backend H and G'_1 take the same route and bits; G'_2 ... G'_4 agree within 1e-14 relative."""
    levels = (1, 2, 3, 4)
    for name, system in _moment_systems().items():
        forms = spectral._grams(system, levels, DEFAULT_BUDGET)
        r = len(forms.num)
        for i, (num, den) in enumerate(_enumerated_forms(system, levels)):
            got = forms.num[:, i * r:(i + 1) * r]
            assert got.shape == num.shape and (got * den == num * forms.den).all(), (name, i)
        fsys = to_float_system(system)
        fh, fgrams = spectral._grams(fsys, levels, DEFAULT_BUDGET).unpack()
        (hnum, _), *want = _enumerated_forms(fsys, levels)
        assert fh.tobytes() == hnum[..., 0].tobytes() and fgrams[1].tobytes() == want[0][0][..., 0].tobytes()
        for k, (num, _) in zip(levels[1:], want[1:]):
            ref = num[..., 0]
            assert np.max(np.abs(fgrams[k] - ref)) <= 1e-14 * np.max(np.abs(ref)), (name, k)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("weights", [(Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))])
def test_bernoulli_constants_stay_not_applicable(weights, backend):
    system = bernoulli_system(list(weights), backend)
    assert spectral._grams(system, (1, 2, 3, 4), DEFAULT_BUDGET) is None
    for k in (1, 2, 3, 4):
        assert c_k(system, k) == CkResult(k, False, None, None)
    res = theta2(system, 4)
    assert not res.applicable and res.c_values == {k: CkResult(k, False, None, None) for k in (1, 2, 3, 4)}


@pytest.mark.parametrize("call", ["c_k", "theta2"])
def test_deeper_levels_add_products_not_words(call, monkeypatch):
    """c_k(sg6, k) and theta2(sg6, k), k = 1 ... 4, step Psi* once (one ``parents`` of E, no ``betas``); each
    level past the first adds one ``congruence``, the ``matmul`` count is the same at every level past the
    first (level 2 adds the one product of S with W F), and no stack handed to a field product has more than
    n * D rows, however deep the level."""
    system = generate_system(6)
    n, dd = system.n_symbols, 3
    events = []

    def spy(cls, name, rows):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *a: events.append((name, rows(*a))) or real(self, *a))

    spy(quadform._Quad, "parents", lambda table: len(table[0]))
    spy(quadform._Quad, "betas", lambda k: n ** k)
    spy(quadform._Quad, "pair", lambda x, y: len(x[0]))
    spy(quadform._Quad, "gram", lambda t: len(t[0]))
    spy(quadform._Quad, "congruence", lambda forms, ops: len(forms[0]))
    spy(multiquad.Multiquad, "matmul", lambda x, y: x[0].size // (x[0].shape[-2] * x[0].shape[-1]))
    counts = []
    for k in (1, 2, 3, 4):
        events.clear()
        c_k(system, k) if call == "c_k" else theta2(system, k)
        names = [e[0] for e in events]
        assert names.count("parents") == 1 and "betas" not in names
        assert max(rows for _, rows in events) <= n * dd
        counts.append((names.count("matmul"), names.count("congruence")))
    matmuls = [m for m, _ in counts]
    assert matmuls[1:] == [matmuls[0] + 1] * 3 and [c for _, c in counts] == [0, 1, 2, 3]


@pytest.mark.parametrize("rows", [[[1, 1], [1, Radical.root(2)]], [[Radical.root(2), -1], [1, 0]]],
                         ids=["surd-discriminant", "complex-surd-trace"])
def test_a_surd_discriminant_declines_as_before(rows):
    """[[1, 1], [1, sqrt 2]] has discriminant 7 - 2 sqrt 2, no square in the field; [[sqrt 2, -1], [1, 0]]
    is a complex pair of modulus 1 with trace sqrt 2, and a complex pair needs rational coefficients.
    Neither is certified."""
    m = as_matrix(rows, EXACT)
    assert _radical_split_2x2(m) == ([], [], False)
    reals, moduli, rest = linalg._split_spectrum(m)
    assert (reals, moduli) == ([], []) and rest == linalg.char_poly(m)
    value, exact = linalg.certified_spectral_radius(m)
    assert exact is None and value == max(abs(np.linalg.eigvals(to_float_matrix(m))))


def test_theta1_takes_no_characteristic_polynomial(monkeypatch):
    """theta1 of d <= 2 systems splits each part in closed form: no char_poly, rational_roots or np.roots,
    and no Radical product or division before the half-trace, determinant and discriminant are unpacked."""
    systems = [sg_system(), generate_system(4), generate_system(6), _raw_system(0), _raw_system(1),
               _raw_system(2), bernoulli_system([Fraction(1, 3), Fraction(2, 3)])]
    want = [theta1(s) for s in systems]
    assert want[4].part_exact["traceless-symmetric"] == parse_exact("6/13*sqrt(2)")  # a complex pair

    def refuse(*args):
        raise AssertionError("root search in theta1")

    monkeypatch.setattr(linalg, "char_poly", refuse)
    monkeypatch.setattr(linalg, "rational_roots", refuse)
    monkeypatch.setattr(np, "roots", refuse)
    events = []
    for op in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "_inverse"):
        monkeypatch.setattr(Radical, op, lambda *a, real=getattr(Radical, op), op=op: events.append(op) or real(*a))
    real_split = linalg._pair_split
    monkeypatch.setattr(linalg, "_pair_split", lambda *x: events.append("split") or real_split(*x))
    for system, res in zip(systems, want):
        events.clear()
        assert theta1(system) == res
        if system.dim == 2:
            assert "split" in events and "split" not in events[:events.index("split")] and \
                not events[:events.index("split")]




@pytest.mark.parametrize("system", [sg_system(FLOAT), generate_system(3, FLOAT), _raw_system(1, FLOAT)],
                         ids=["sg", "sg3", "raw1"])
def test_ck_float_matches_reference(system):
    for k in (1, 2):
        want = _ck_reference(system, k)
        want_h, want_gram = _per_word_forms(system, k, _packed_basis(system))
        got_h, grams = spectral._grams(system, (k,), DEFAULT_BUDGET).unpack()
        assert np.max(np.abs(got_h - want_h)) <= 1e-12 * np.max(np.abs(want_h))
        assert np.max(np.abs(grams[k] - want_gram)) <= 1e-12 * np.max(np.abs(want_gram))
        assert abs(c_k(system, k).value - want.value) <= 1e-12 * abs(want.value)


@pytest.mark.parametrize("base", range(len(RAW_BASES)))
def test_raw_maps_certify_theta1_and_c1(base):
    system = _raw_system(base)
    assert not system.energy[0, 1].is_zero()
    assert theta1(system).exact == parse_exact(RAW_THETA1[base])
    c1 = c_k(system, 1)
    assert abs(c1.value - RAW_C1[base]) <= 1e-9
    assert abs(c1.value - c_k(_raw_system(base, FLOAT), 1).value) <= 1e-9


def test_ck_budget_checked_before_the_kernel(sg, monkeypatch):
    def no_kernel(system):
        raise AssertionError("kernel built past the budget")

    monkeypatch.setattr(spectral, "_Quad", no_kernel)
    with pytest.raises(BudgetError):
        c_k(sg, 3, budget=26)
    with pytest.raises(BudgetError):
        theta2(sg, 3, budget=26)
    monkeypatch.undo()
    assert cli.main(["ck", "--builtin", "sg", "--k", "3", "--budget-k", "2"]) == 3



# -- renormalization against the Radical pipeline's outputs --------------------

GOLDEN = Path(__file__).parent / "golden"


def _random_raw(seed):
    """Seeded raw maps: for seed % 4 == 0 a scaled unimodular conjugate of a raw base, else 2..4 integer
    2 x 2 maps with entries in -3..3, symmetrized for seed % 4 == 1."""
    rng = np.random.default_rng(seed)
    if seed % 4 == 0:
        u = np.eye(2, dtype=np.int64)
        for _ in range(2):
            a, b = (int(x) for x in rng.choice([-2, -1, 1, 2], 2))
            u = u @ np.array([[1, a], [0, 1]]) @ np.array([[1, 0], [b, 1]])
        inv = np.array([[u[1, 1], -u[0, 1]], [-u[1, 0], u[0, 0]]])
        base, scale = RAW_BASES[int(rng.integers(3))], int(rng.integers(1, 4))
        return [(scale * u @ np.array(base[s]) @ inv).tolist() for s in rng.permutation(3)]
    maps = rng.integers(-3, 4, (int(rng.integers(2, 5)), 2, 2))
    if seed % 4 == 1:
        maps = maps + maps.transpose(0, 2, 1)
    return maps.tolist()


def _formatted(a):
    return [[format_exact(x) for x in row] for row in a]


def test_renormalize_matches_golden_on_seeded_raw_maps():
    """Systems or ValueError texts of 60 seeded raw systems, as the Radical pipeline gave them (15 renormalize)."""
    cases = json.loads((GOLDEN / "renormalize-random.json").read_text(encoding="utf-8"))
    assert [c["seed"] for c in cases] == list(range(60))
    for case in cases:
        assert case["raw"] == _random_raw(case["seed"])
        try:
            out = renormalize(case["raw"], EXACT)
        except ValueError as exc:
            assert str(exc) == case.get("error"), case["seed"]
            continue
        assert [_formatted(a) for a in out.maps] == case["maps"], case["seed"]
        assert _formatted(out.energy) == case["energy"], case["seed"]
    assert sum("error" not in c for c in cases) == 15


@pytest.mark.parametrize("raws", [
    lambda: [[list(r) for r in a] for a in RAW_BASES[0]],
    _raw_gasket_maps,
    lambda: _random_raw(8),
], ids=["raw0", "raw-gasket", "seed8"])
def test_renormalize_searches_the_perron_root_once(raws, monkeypatch):
    """One certified root search on exact, one batched np.linalg.eig of both operators on float."""
    calls = []
    orig = linalg.certified_spectral_radius
    monkeypatch.setattr(linalg, "certified_spectral_radius", lambda rep: calls.append(rep) or orig(rep))
    assert validate(renormalize(raws(), EXACT)).ok
    assert len(calls) == 1
    eigs, orig_eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: eigs.append(a.shape) or orig_eig(a))
    renormalize([to_float_matrix(a) for a in raws()], FLOAT)
    assert eigs == [(2, 3, 3)]


def test_primal_operator_is_the_weighted_transpose_of_the_dual():
    """rep_primal = W^-1 rep_dual^T W exactly, W the packed weights (1 on the diagonal pairs, 2 off it)."""
    rng = np.random.default_rng(7)
    systems = [_random_raw(seed) for seed in range(12)] + [_raw_gasket_maps()]
    systems += [rng.integers(-3, 4, (3, 3, 3)).tolist() for _ in range(4)]
    for raws in systems:
        mats = [as_matrix(a, EXACT) if not isinstance(a, np.ndarray) else a for a in raws]
        d = mats[0].shape[0]
        w = np.diag([1 if i == j else 2 for i, j in quadform.packed_pairs(d)]).astype(object)
        primal = quadform.averaging_matrix([a.T for a in mats])
        dual = quadform.averaging_matrix(mats)
        assert (w @ primal == dual.T @ w).all()


def test_float_renormalize_weight_is_symmetric():
    """The float weight is (W + W^T) / 2 over its trace: raw base 0's measure builds, and weights that
    were already symmetric (raw bases 1 and 2 here, the gaskets in test_gasket) keep every bit."""
    want = json.loads((GOLDEN / "renormalize-raw-bases-float.json").read_text(encoding="utf-8"))
    for base in (1, 2):
        out = _raw_system(base, FLOAT)
        assert repr([a.tolist() for a in out.maps]) == want[str(base)]["maps"]
        assert repr(out.energy.tolist()) == want[str(base)]["energy"]
    raw0 = _raw_system(0, FLOAT)
    assert (raw0.energy == raw0.energy.T).all()
    assert validate(raw0).ok
    kusuoka_measure(raw0)


# An ill-conditioned raw input of the certify benchmark (perfbench raw_map_inputs, seed 1): eig gives
# its Perron root 13 as 13.0000013 on the primal operator and 13.0000004 on the dual.
CERTIFY_RAW = [[[-333, 461], [-242, 335]], [[153, -209], [112, -153]], [[267, -368], [193, -266]]]


def test_float_renormalize_accepts_every_raw_exact_accepts():
    """The 77 seeded raws (seeds 0..299) and the certify raw that exact accepts, within 1e-4 of exact.

    These are ill-conditioned, so the float systems carry eig's error; the worst entry is about 3e-5.
    """
    accepted = 0
    for raws in [_random_raw(seed) for seed in range(300)] + [CERTIFY_RAW]:
        try:
            exact = renormalize(raws, EXACT)
        except ValueError:
            continue
        accepted += 1
        out = renormalize(raws, FLOAT)
        for a, b in zip(out.maps, exact.maps):
            assert np.abs(a - to_float_matrix(b)).max() <= 1e-4
        assert np.abs(out.energy - to_float_matrix(exact.energy)).max() <= 1e-4
    assert accepted == 78


def test_float_renormalize_is_scale_free():
    """Float decisions are relative to the maps and mu: t * A_s gives the t = 1 system for tiny and huge t."""
    raws = [to_float_matrix(a) for a in _raw_gasket_maps()]
    base = renormalize(raws, FLOAT)
    for t in (1e-6, 1e-5, 1e6):
        out = renormalize([t * a for a in raws], FLOAT)
        for a, b in zip(out.maps, base.maps):
            assert np.abs(a - b).max() <= 1e-14
        assert np.abs(out.energy - base.energy).max() <= 1e-14
