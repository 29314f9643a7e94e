import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtyangian.errors import (
    InconsistentSamplesError,
    InsufficientSamplesError,
    SingularMatrixError,
)
from gtyangian.exact import (
    Poly,
    RatFunc,
    RFMatrix,
    _gauss_jordan_inverse,
    _triangular_inverse,
    bareiss_det,
    identity,
    intersect_spans,
    mat_inv,
    mat_mul,
    nullspace,
    poly_gcd,
    poly_str,
    rf_from_samples,
    rf_matrix_inverse,
    solve_right,
)

U = Poly.x()


def test_poly_basic_arithmetic():
    p = (U + 1) * (U - 1)
    assert p == U**2 - 1
    assert p(3) == 8
    assert (p - p).is_zero()
    assert (U**2 - 1) // (U - 1) == U + 1
    assert (U**2 - 1) % (U - 1) == Poly()


def test_poly_shift_and_roots():
    p = Poly.from_roots([1, 2, 2])
    assert p(1) == 0 and p(2) == 0
    assert p.shift(1)(0) == p(1)
    assert p.shift(Fraction(1, 2))(Fraction(1, 2)) == p(1)


def test_poly_gcd_examples():
    # gcd(u^2-1, u-1) = u-1
    assert poly_gcd(U**2 - 1, U - 1) == U - 1
    # gcd(p, 0) = monic(p)
    assert poly_gcd(3 * U + 3, Poly()) == U + 1
    # gcd(u^2+u, u+1) = u+1 (Euclid by hand: u^2+u = u*(u+1))
    assert poly_gcd(U**2 + U, U + 1) == U + 1
    assert poly_gcd(Poly(), Poly()) == Poly()


def test_poly_str_deterministic():
    assert poly_str(U**2 - U + Fraction(1, 2)) == "u^2-u+1/2"
    assert poly_str(Poly()) == "0"


def test_ratfunc_normalization():
    f = RatFunc(U**2 - 1, 2 * U - 2)
    assert f.num == Fraction(1, 2) * (U + 1)
    assert f.den == Poly.constant(1)
    g = RatFunc(U, U**2)
    assert g == RatFunc(Poly.constant(1), U)
    assert (g - g).is_zero()


def test_ratfunc_arithmetic_and_eval():
    f = RatFunc(U + 1, U)
    assert f(1) == 2
    assert (f * f.inverse()) == RatFunc(Poly.constant(1))
    with pytest.raises(Exception):
        f(0)
    assert f.shift(1)(0) == f(1)


@given(st.lists(st.fractions(max_denominator=20), min_size=0, max_size=5))
def test_poly_sub_self_is_zero(coeffs):
    p = Poly(coeffs)
    assert (p - p).is_zero()


def _random_rat_matrix(rng, n, denom=5):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, denom)) for _ in range(n)] for _ in range(n)
    ]


def test_solve_and_inverse_random():
    rng = random.Random(7)
    done = 0
    while done < 8:
        n = rng.randint(1, 6)
        A = _random_rat_matrix(rng, n)
        if bareiss_det(A) == 0:
            continue
        inv = mat_inv(A)
        assert mat_mul(A, inv) == identity(n)
        assert mat_mul(inv, A) == identity(n)
        done += 1


def test_singular_raises():
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert bareiss_det(A) == 0
    with pytest.raises(SingularMatrixError):
        solve_right(A, identity(2))


def test_bareiss_det_matches_cofactor():
    rng = random.Random(11)
    for _ in range(6):
        A = _random_rat_matrix(rng, 3)

        def cof(M):
            if len(M) == 1:
                return M[0][0]
            tot = Fraction(0)
            for j in range(len(M)):
                minor = [row[:j] + row[j + 1 :] for row in M[1:]]
                tot += (-1) ** j * M[0][j] * cof(minor)
            return tot

        assert bareiss_det(A) == cof(A)


def test_nullspace_and_intersection():
    A = [[Fraction(1), Fraction(1), Fraction(0)]]
    ns = nullspace(A)
    assert len(ns) == 2
    for v in ns:
        assert sum(a * x for a, x in zip(A[0], v)) == 0
    s1 = [[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]]
    s2 = [[Fraction(0), Fraction(1), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    inter = intersect_spans(s1, s2)
    assert len(inter) == 1
    v = inter[0]
    assert v[0] == 0 and v[2] == 0 and v[1] != 0


def test_rf_matrix_inverse_examples():
    # identity 3x3 -> identity
    I3 = RFMatrix.identity(3)
    assert rf_matrix_inverse(I3) == I3
    # [[u,1],[0,u]] -> [[1/u, -1/u^2],[0, 1/u]]
    M = RFMatrix.from_rows([[U, 1], [0, U]])
    inv = rf_matrix_inverse(M)
    assert inv.get(0, 0) == RatFunc(1, U)
    assert inv.get(0, 1) == RatFunc(-1, U**2)
    assert inv.get(1, 0).is_zero()
    assert inv.get(1, 1) == RatFunc(1, U)
    # [[u,u],[1,1]] singular
    with pytest.raises(SingularMatrixError):
        rf_matrix_inverse(RFMatrix.from_rows([[U, U], [1, 1]]))


def test_rf_matrix_inverse_fallbacks_match_gauss_jordan():
    # support 0 -> 1 -> 2 -> 0 is a cycle; the second matrix lacks entry (0, 0)
    cyclic = RFMatrix.from_rows([[U, 1, 0], [0, U + 1, 2], [3, 0, U - 1]])
    no_diagonal = RFMatrix.from_rows([[0, U], [1, U + 2]])
    for M in (cyclic, no_diagonal):
        assert _triangular_inverse(M) is None
        inv = rf_matrix_inverse(M)
        assert inv == _gauss_jordan_inverse(M)
        assert M * inv == RFMatrix.identity(M.nrows)


def test_rf_matrix_inverse_substitution_in_permuted_order():
    # triangular in the basis order 1, 0, 2, not in the index order
    M = RFMatrix.from_rows([[U, 2, 0], [0, U + 1, 0], [1, RatFunc(1, U + 3), U - 3]])
    inv = _triangular_inverse(M)
    assert inv is not None
    assert inv == _gauss_jordan_inverse(M) == rf_matrix_inverse(M)
    assert M * inv == RFMatrix.identity(3)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=3))
def test_rf_matrix_inverse_roundtrip(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    while True:
        rows = [
            [
                RatFunc(
                    Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]),
                    Poly.from_roots([rng.randint(1, 3)]) if rng.random() < 0.3 else Poly.constant(1),
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        M = RFMatrix.from_rows(rows)
        try:
            inv = rf_matrix_inverse(M)
            break
        except SingularMatrixError:
            continue
    assert (M * inv) == RFMatrix.identity(n)


def test_rf_from_samples_constant():
    mat = [[Fraction(3), Fraction(0)], [Fraction(1, 2), Fraction(-1)]]
    samples = [(Fraction(k), mat) for k in (0, 1, 2)]
    rec = rf_from_samples(samples, 0, 0)
    assert rec.eval(17) == mat


def test_rf_from_samples_scalar_example():
    # (u+1)/u at u in {1,2,3}, bounds (1,1); check at a held-out point
    f = RatFunc(U + 1, U)
    samples = [(Fraction(x), [[f(x)]]) for x in (1, 2, 3)]
    rec = rf_from_samples(samples, 1, 1)
    assert rec.get(0, 0) == f
    assert rec.get(0, 0)(5) == f(5)


def test_rf_from_samples_errors():
    # samples of u^2 with bounds (1,0) -> inconsistent
    samples = [(Fraction(x), [[Fraction(x * x)]]) for x in (0, 1, 2, 3)]
    with pytest.raises(InconsistentSamplesError):
        rf_from_samples(samples, 1, 0)
    with pytest.raises(InsufficientSamplesError):
        rf_from_samples(samples[:2], 1, 1)
    with pytest.raises(ValueError):
        rf_from_samples([(Fraction(1), [[Fraction(0)]])] * 3, 0, 0)


def test_rf_from_samples_left_inverse_of_evaluation():
    rng = random.Random(3)
    for _ in range(5):
        num = Poly([rng.randint(-4, 4) for _ in range(3)])
        den = Poly.from_roots([rng.randint(4, 9)])
        f = RatFunc(num, den)
        if f.is_zero():
            continue
        dn, dd = max(f.num.degree, 0), f.den.degree
        pts = [Fraction(k) for k in range(dn + dd + 2)]
        samples = [(x, [[f(x)]]) for x in pts]
        rec = rf_from_samples(samples, dn, dd)
        assert rec.get(0, 0) == f
