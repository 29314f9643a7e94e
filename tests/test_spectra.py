import random
from fractions import Fraction

from hypothesis import given, settings

from gtyangian import spectra
from gtyangian.exact import RatFunc, RFMatrix, Poly, mat_vec, rank
from gtyangian.glmod import build_module
from gtyangian.patterns import SuperShape, enumerate_patterns, enumerate_skew_patterns
from gtyangian.spectra import (
    build_xi,
    chi,
    eta_vector,
    family_spectrum,
    gt_spectrum,
    is_simple,
    kernel_spectrum,
    leftmost_factor,
    raise_xi,
    spectrum_to_json,
    xi_plan,
    zeta,
    zeta_product,
)
from gtyangian.yangian import (
    d_series,
    evaluation_action,
    gamma,
    gt_series,
    skew_action,
    tensor_action,
    twist_omega_f,
)

from strategies import small_tensors

U = Poly.x()


def natural11(h=0):
    return evaluation_action(build_module(SuperShape(1, 1), (1, 0)), h)


def test_zeta_zero_pattern():
    shape = SuperShape(2, 2)
    p = enumerate_patterns(shape, (0, 0, 0, 0))[0]
    for k in range(1, 5):
        assert zeta(p, k, 0, 0) == RatFunc(U)
        assert zeta(p, k, 0, Fraction(1, 2)) == RatFunc(U + Fraction(1, 2))


def test_zeta_gl11_matches_quasidet_example():
    shape = SuperShape(1, 1)
    pats = enumerate_patterns(shape, (1, 0))
    p0 = next(p for p in pats if p.rows[0][0] == 0)
    p1 = next(p for p in pats if p.rows[0][0] == 1)
    assert zeta(p1, 2, 0, 0) == RatFunc(U)
    assert zeta(p0, 2, 0, 0) == RatFunc(U * U, U + 1)
    assert zeta(p1, 1, 0, 0) == RatFunc(U + 1)
    assert zeta(p0, 1, 0, 0) == RatFunc(U)


def test_zeta_equals_d_eigenvalues_on_skew():
    # Lemma: d_k acts diagonally on skew pattern vectors with eigenvalue zeta
    shape = SuperShape(1, 1)
    lam, mu, h = (2, 1, 0), (1,), Fraction(1, 3)
    ym = skew_action(shape, lam, mu, h)
    for k in (1, 2):
        dk = d_series(ym, k)
        for a, pat in enumerate(ym.factors[0].patterns):
            assert dk.get(a, a) == zeta(pat, k, 1, h)
        for (a, b) in dk.entries:
            if a != b:
                # off-diagonal entries exist only upward in degree
                assert ym.deg_keys[a] > ym.deg_keys[b]


def test_chi_consistency_with_zeta_products():
    # chi_k = prod_{a <= min(k,m)} zeta_a(u + gamma_a) * prod_{m < b <= k} zeta_b(u + gamma_b)^{-1}
    rng = random.Random(5)
    cases = [
        (SuperShape(1, 1), (2, 1, 0), (1,), 1),
        (SuperShape(1, 1), (3, 1, 1), (1,), 1),
        (SuperShape(2, 1), (2, 1, 1, 0), (1,), 1),
        (SuperShape(1, 2), (2, 1, 1, 0), (1,), 1),
        (SuperShape(2, 2), (2, 1, 1, 0), (), 0),
    ]
    checked = 0
    for shape, lam, mu, r in cases:
        amb = SuperShape(shape.m + r, shape.n)
        pats = enumerate_skew_patterns(amb, lam, mu)
        rng.shuffle(pats)
        for p in pats[:5]:
            h = Fraction(rng.randint(-2, 2), rng.choice([1, 2, 3]))
            for k in range(1, shape.size + 1):
                lhs = chi(p, k, r, h)
                rhs = RatFunc.constant(1)
                for a in range(1, min(k, shape.m) + 1):
                    rhs = rhs * zeta(p, a, r, h).shift(gamma(shape.m, a))
                for b in range(shape.m + 1, k + 1):
                    rhs = rhs / zeta(p, b, r, h).shift(gamma(shape.m, b))
                assert lhs == rhs
                checked += 1
    assert checked >= 20


def test_chi_trivial_and_r0():
    shape = SuperShape(2, 1)
    p = enumerate_patterns(shape, (0, 0, 0))[0]
    # r = 0: denominators are empty products
    assert chi(p, 1, 0, 0) == RatFunc(U)
    assert chi(p, 2, 0, 0) == RatFunc(U * (U - 1))
    assert chi(p, 3, 0, 0) == RatFunc(U * (U - 1), (U - 1))


def test_gt_spectrum_single_evaluation_module():
    ym = natural11()
    rep = gt_spectrum(ym)
    assert rep.tame and rep.simple_spectrum
    assert len(rep.eigen) == 2
    eigs = {tuple(sorted((k, str(f)) for k, f in vals.items())) for _, vals in rep.eigen}
    expect = set()
    for p in enumerate_patterns(SuperShape(1, 1), (1, 0)):
        expect.add(tuple(sorted((k, str(zeta(p, k, 0, 0))) for k in (1, 2))))
    assert eigs == expect


def test_gt_spectrum_tensor_distinct_shifts():
    W = tensor_action([natural11(0), natural11(Fraction(1, 2))])
    rep = gt_spectrum(W)
    assert rep.tame
    assert rep.simple_spectrum
    assert len(rep.eigen) == 4
    # eigenvalues are the per-factor zeta products
    pats = enumerate_patterns(SuperShape(1, 1), (1, 0))
    tuples = set()
    for p in pats:
        for q in pats:
            tuples.add(
                tuple(
                    str(zeta(p, k, 0, 0) * zeta(q, k, 0, Fraction(1, 2)))
                    for k in (1, 2)
                )
            )
    got = {tuple(str(vals[k]) for k in (1, 2)) for _, vals in rep.eigen}
    assert got == tuples


def test_gt_spectrum_equal_shifts_not_tame():
    W = tensor_action([natural11(0), natural11(0)])
    rep = gt_spectrum(W)
    assert not rep.tame
    k, u0, cert = rep.witness
    assert 1 <= k <= 2
    assert "u" in cert
    assert rep.collisions  # the two mixed vectors share their tuples


def test_gt_spectrum_invariant_under_twist():
    W = tensor_action([natural11(0), natural11(Fraction(1, 2))])
    f = RatFunc(U + 2, U)
    tw = twist_omega_f(W, f)
    rep, rep_tw = gt_spectrum(W), gt_spectrum(tw)
    assert rep.tame and rep_tw.tame
    base = {tuple(v): vals for v, vals in rep.eigen}
    for v, vals in rep_tw.eigen:
        assert tuple(v) in base
        for k, val in vals.items():
            assert val == base[tuple(v)][k] * f
    bad = tensor_action([natural11(0), natural11(0)])
    assert not gt_spectrum(twist_omega_f(bad, f)).tame


def test_spectrum_json_shape():
    rep = gt_spectrum(natural11())
    js = spectrum_to_json(rep)
    assert '"verdict":"tame"' in js
    rep2 = gt_spectrum(tensor_action([natural11(0), natural11(0)]))
    assert '"verdict":"not_tame"' in spectrum_to_json(rep2)


# ---------------------------------------------------------------------------
# two routes for the eigenvectors: substitution against stacked kernels


def d_family(ym):
    series = gt_series(ym)
    return {k: series[("d", k)] for k in range(1, ym.shape.size + 1)}


@settings(max_examples=25, deadline=None)
@given(small_tensors())
def test_substitution_route_matches_kernel_route(ym):
    mats = d_family(ym)
    tuples = spectra._diagonal_tuples(mats)
    kernel = kernel_spectrum(mats)
    if len(set(tuples)) == len(tuples):
        eigen = spectra._substitution_eigen(mats, tuples)
        if eigen is not None:
            assert kernel.tame and eigen == kernel.eigen
    assert gt_spectrum(ym) == kernel


def test_tame_simple_spectrum_stacks_no_kernel(monkeypatch):
    W = tensor_action([natural11(0), natural11(Fraction(1, 2))])
    expect = kernel_spectrum(d_family(W))

    def refuse(*args):
        raise AssertionError("kernel route taken")

    monkeypatch.setattr(spectra, "_poly_kernel", refuse)
    assert family_spectrum(d_family(W)) == expect


def test_collision_goes_straight_to_kernel_route(monkeypatch):
    W = tensor_action([natural11(0), natural11(0)])
    expect = kernel_spectrum(d_family(W))
    assert expect.collisions

    def refuse(*args):
        raise AssertionError("substitution tried on colliding tuples")

    monkeypatch.setattr(spectra, "_substitution_eigen", refuse)
    assert gt_spectrum(W) == expect


def test_cyclic_support_falls_back_to_kernel_route():
    # support 0 -> 1 -> 2 -> 0 is a cycle; the eigenvalues are still 1, 2, 3
    M = RFMatrix.from_rows([[1, 1, 0], [Fraction(1, 2), 2, 1], [1, Fraction(-1, 2), 3]])
    mats = {1: M, 2: RFMatrix.from_rows([[U, 0, 0], [0, U, 0], [0, 0, U]])}
    assert spectra._substitution_eigen(mats, spectra._diagonal_tuples(mats)) is None
    rep = family_spectrum(mats)
    assert rep == kernel_spectrum(mats)
    assert rep.tame and len(rep.eigen) == 3


def test_non_constant_coordinate_falls_back_to_kernel_route():
    # d_2 separates the two indices, and solving with it gives w_1 = -u
    mats = {1: RFMatrix.from_rows([[1, 0], [U, 1]]), 2: RFMatrix.from_rows([[1, 0], [U, 2]])}
    assert spectra._substitution_eigen(mats, spectra._diagonal_tuples(mats)) is None
    rep = family_spectrum(mats)
    assert rep == kernel_spectrum(mats)
    assert not rep.tame


def test_failed_check_falls_back_to_kernel_route():
    # the solve uses d_2 only and gives w = (1, 0), which d_1 does not fix
    mats = {1: RFMatrix.from_rows([[1, 0], [U, 1]]), 2: RFMatrix.from_rows([[1, 0], [0, 2]])}
    assert spectra._substitution_eigen(mats, spectra._diagonal_tuples(mats)) is None
    rep = family_spectrum(mats)
    assert rep == kernel_spectrum(mats)
    assert not rep.tame


def test_one_member_kernel_route_leads_with_one():
    # d_1 = [[u, 0], [2, u + 1]]: the u-eigenvector is (1, -2), which a plain
    # nullspace would return as (-1/2, 1)
    mats = {1: RFMatrix.from_rows([[U, 0], [2, U + 1]])}
    rep = kernel_spectrum(mats)
    assert rep.tame
    assert [vec for vec, _ in rep.eigen] == [(1, -2), (0, 1)]
    assert rep == family_spectrum(mats)


# ---------------------------------------------------------------------------
# xi construction


def skew_pair(shift=Fraction(1, 2)):
    shape = SuperShape(1, 1)
    A = skew_action(shape, (2, 1, 0), (1,), 0)
    B = skew_action(shape, (2, 1, 0), (1,), shift)
    return tensor_action([A, B])


def test_xi_plan_single_factor_gl11():
    ym = skew_action(SuperShape(1, 1), (2, 1, 0), (1,), 0)
    f = ym.factors[0]
    # target: decrement both (2,1) and (2,2) from the top (2,1)
    target = next(p for p in f.patterns if p.rows[1] == (1, 0))
    plan = xi_plan(ym.factors, [target])
    assert [(s.row, s.col) for s in plan] == [(2, 2), (2, 1)]
    # points: -(l+r+h) + gamma; column 2 odd row... both rows even here (m+r=2)
    assert [s.point for s in plan] == [Fraction(-1), Fraction(-3)]


def test_build_xi_no_factors_is_xi0():
    ym = skew_action(SuperShape(1, 1), (2, 1, 0), (1,), 0)
    f = ym.factors[0]
    top = next(p for p in f.patterns if p.rows[1] == (2, 1))
    vec = build_xi(ym, [top])
    idx = f.patterns.index(top)
    assert vec[idx] == 1 and sum(1 for x in vec if x) == 1


def test_build_xi_eigen_single_factor():
    ym = skew_action(SuperShape(1, 1), (2, 1, 0), (1,), Fraction(1, 3))
    f = ym.factors[0]
    series = gt_series(ym)
    for target in f.patterns:
        vec = build_xi(ym, [target])
        assert any(vec)
        for k in (1, 2):
            dk = series[("d", k)]
            expect = zeta(target, k, 1, Fraction(1, 3))
            # exact eigen equation at the rational-function level via 3 points
            for u0 in (Fraction(5), Fraction(7), Fraction(11, 2)):
                got = mat_vec(dk.eval(u0), vec)
                want = [expect(u0) * x for x in vec]
                assert got == want


def test_build_xi_eigen_tensor_thm_ksi():
    W = skew_pair()
    fs = W.factors
    series = gt_series(W)
    pats0, pats1 = fs[0].patterns, fs[1].patterns
    count = 0
    for p in pats0:
        for q in pats1:
            vec = build_xi(W, [p, q])
            assert any(vec), (p, q)  # Prop: valid multi-patterns give nonzero
            for k in (1, 2):
                expect = zeta_product(fs, [p, q], k)
                dk = series[("d", k)]
                for u0 in (Fraction(5), Fraction(7)):
                    got = mat_vec(dk.eval(u0), vec)
                    want = [expect(u0) * x for x in vec]
                    assert got == want
            count += 1
    assert count == 16


def test_build_xi_spans_basis_thm_GTbasis():
    W = skew_pair()
    fs = W.factors
    vecs = [build_xi(W, [p, q]) for p in fs[0].patterns for q in fs[1].patterns]
    assert rank(vecs) == W.dim == 16


def test_build_xi_invalid_pattern_vanishes():
    # Prop: Lambda outside the pattern set gives xi = 0
    ym = skew_action(SuperShape(1, 1), (2, 1, 0), (1,), 0)
    from gtyangian.patterns import GTPattern

    bad = GTPattern(SuperShape(2, 1), ((1,), (0, 0), (2, 1, 0)))  # theta_{2,1} = 2
    assert not bad.is_valid()
    vec = build_xi(ym, [bad])
    assert not any(vec)


def test_raise_xi_roundtrip():
    # The raising point can be a genuine pole when the zeta cancellation at a
    # frozen row kills the zero the recursion relies on (PoleHit is reported);
    # every non-degenerate pattern must round-trip with c != 0.
    from gtyangian.errors import PoleHitError

    ym = skew_action(SuperShape(1, 1), (2, 1, 0), (1,), Fraction(1, 3))
    f = ym.factors[0]
    clean = 0
    for target in f.patterns:
        plan = xi_plan(ym.factors, [target])
        if not plan:
            continue
        w, L = leftmost_factor(ym, [target])
        xi = build_xi(ym, [target])
        eta = eta_vector(ym, [target])
        try:
            raised = raise_xi(ym, xi, w, L)
        except PoleHitError:
            continue
        assert any(raised)
        nz = next(i for i, x in enumerate(eta) if x)
        c = raised[nz] / eta[nz]
        assert c != 0
        assert raised == [c * x for x in eta]
        clean += 1
    assert clean >= 1


def test_raise_xi_annihilates_xi0():
    # with no factors, x_k at the analogous point kills xi_0 (degree argument)
    ym = skew_action(SuperShape(1, 1), (2, 1, 0), (1,), 0)
    f = ym.factors[0]
    top = next(p for p in f.patterns if p.rows[1] == (2, 1))
    target = next(p for p in f.patterns if p.rows[1] == (1, 1))
    # the plan for `target` has leftmost factor y_1(-L + gamma_1); apply the
    # matching raising point to xi_0 itself
    w, L = leftmost_factor(ym, [target])
    xi0 = build_xi(ym, [top])
    out = raise_xi(ym, xi0, w, L)
    assert not any(out)


def test_raise_xi_scale_invariance():
    ym = skew_action(SuperShape(1, 1), (2, 1, 0), (1,), Fraction(1, 3))
    f = ym.factors[0]
    target = next(p for p in f.patterns if p.rows[1] == (2, 0))
    w, L = leftmost_factor(ym, [target])
    xi = build_xi(ym, [target])
    out1 = raise_xi(ym, xi, w, L)
    assert any(out1)
    out2 = raise_xi(ym, [3 * x for x in xi], w, L)
    assert out2 == [3 * x for x in out1]


# ---------------------------------------------------------------------------
# simplicity


def test_is_simple_one_dimensional():
    triv = evaluation_action(build_module(SuperShape(1, 1), (0, 0)), 0)
    ok, cert = is_simple(triv)
    assert ok


def test_is_simple_tensor_with_good_shifts():
    W = tensor_action([natural11(0), natural11(Fraction(1, 2))])
    ok, cert = is_simple(W)
    assert ok


def test_is_simple_direct_sum_fixture():
    # M + M: double every t-matrix block-diagonally
    from gtyangian.exact import RFMatrix
    from gtyangian.yangian import YangianModule

    ym = natural11()
    D = ym.dim
    t = {}
    for key, mat in ym.t.items():
        ent = {}
        for (a, b), v in mat.entries.items():
            ent[(a, b)] = v
            ent[(a + D, b + D)] = v
        t[key] = RFMatrix(2 * D, 2 * D, ent)
    double = YangianModule(
        ym.shape,
        t,
        ym.parity + ym.parity,
        ym.deg_keys + ym.deg_keys,
        ym.factors + ym.factors,
        tuple((lbl, 0) for lbl in ym.labels) + tuple((lbl, 1) for lbl in ym.labels),
    )
    ok, cert = is_simple(double)
    assert not ok
    assert "invariant_subspace" in cert
    sub = cert["invariant_subspace"]
    assert 0 < len(sub) < 2 * D
