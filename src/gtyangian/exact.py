"""Exact arithmetic substrate: rationals, univariate polynomials, rational
functions, and matrices over them.

Conventions: polynomials store coefficients ascending; rational functions
keep a monic denominator coprime to the numerator; dense matrices are lists
of lists of Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from math import lcm

from .errors import (
    InconsistentSamplesError,
    InsufficientSamplesError,
    PoleError,
    SingularMatrixError,
)

Rat = Fraction


def rat(x) -> Fraction:
    """Coerce ints/strings like '3/4' to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Univariate polynomial over Q, coefficients ascending, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((rat(c),))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots) -> "Poly":
        """Monic product of (u - r) over the given root multiset."""
        p = cls.constant(1)
        for r in roots:
            p = p * cls((-rat(r), 1))
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial -> -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = Poly()
        r = self
        inv_lc = 1 / other.lc()
        while not r.is_zero() and r.degree >= other.degree:
            shift = r.degree - other.degree
            coef = r.lc() * inv_lc
            term = Poly((0,) * shift + (coef,))
            q = q + term
            r = r - term * other
        return q, r

    def __floordiv__(self, other):
        return self.divmod(_as_poly(other))[0]

    def __mod__(self, other):
        return self.divmod(_as_poly(other))[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * (1 / self.lc())

    def shift(self, a) -> "Poly":
        """p(u) -> p(u + a)."""
        a = rat(a)
        acc = Poly()
        ua = Poly((a, 1))
        for c in reversed(self.coeffs):
            acc = acc * ua + Poly.constant(c)
        return acc

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __repr__(self):
        return f"Poly({poly_str(self)})"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_str(p: Poly, var: str = "u") -> str:
    """Deterministic human-readable form, descending powers."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(c)
        else:
            head = var if i == 1 else f"{var}^{i}"
            body = head if c == 1 else (f"-{head}" if c == -1 else f"{c}*{head}")
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return "".join(parts)


def rational_roots(p: Poly):
    """All rational roots with multiplicity, plus the non-linear cofactor."""
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    roots = []
    p = p.monic()
    # strip roots at 0 first, then use the rational root theorem on the
    # integer-cleared polynomial
    while not p.is_zero() and p.coeffs[0] == 0:
        roots.append(Fraction(0))
        p = Poly(p.coeffs[1:])
    while p.degree >= 1:
        den = lcm(*(c.denominator for c in p.coeffs))
        ic = [int(c * den) for c in p.coeffs]
        a0, an = abs(ic[0]), abs(ic[-1])
        found = None
        for q in _divisors(an):
            for r in _divisors(a0):
                for cand in (Fraction(r, q), Fraction(-r, q)):
                    if p(cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        p = p // Poly((-found, 1))
    return roots, p


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = Poly.constant(1) if den is None else _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), Poly.constant(1)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        c = den.lc()
        self.num = num * (1 / c)
        self.den = den * (1 / c)

    @classmethod
    def x(cls) -> "RatFunc":
        return cls(Poly.x())

    @classmethod
    def constant(cls, c) -> "RatFunc":
        return cls(Poly.constant(c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(_as_poly(other))
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_rf(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_rf(other))

    def __rsub__(self, other):
        return _as_rf(other) + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __call__(self, x) -> Fraction:
        x = rat(x)
        d = self.den(x)
        if d == 0:
            raise PoleError(f"pole at u = {x}")
        return self.num(x) / d

    def shift(self, a) -> "RatFunc":
        return RatFunc(self.num.shift(a), self.den.shift(a))

    def __repr__(self):
        return f"RatFunc({rf_str(self)})"


def _as_rf(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RatFunc(_as_poly(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to RatFunc")


def rf_str(f: RatFunc, var: str = "u") -> str:
    if f.is_polynomial():
        return poly_str(f.num, var)
    return f"({poly_str(f.num, var)})/({poly_str(f.den, var)})"


ZERO_RF = RatFunc(Poly())
ONE_RF = RatFunc(Poly.constant(1))


# ---------------------------------------------------------------------------
# dense matrices over Fraction


def identity(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r: int, c: int):
    return [[Fraction(0)] * c for _ in range(r)]


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0]) if k else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    b = Bt[j]
                    if b:
                        Oi[j] += a * b
    return out

def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_vec(A, v):
    return [sum((a * x for a, x in zip(row, v) if a and x), Fraction(0)) for row in A]


def _int_clear_rows(rows):
    """Scale each row by the lcm of denominators; returns integer rows."""
    out = []
    for row in rows:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * mult) for x in row])
    return out


def solve_right(A, B):
    """Exact solution X of A X = B via fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return []
    k = len(B[0])
    M = _int_clear_rows([list(ra) + list(rb) for ra, rb in zip(A, B)])
    w = n + k
    prev = 1
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c] != 0), None)
        if p is None:
            raise SingularMatrixError("matrix is singular")
        if p != c:
            M[c], M[p] = M[p], M[c]
        piv = M[c][c]
        for r in range(c + 1, n):
            row_r, row_c = M[r], M[c]
            mrc = row_r[c]
            for j in range(c + 1, w):
                row_r[j] = (piv * row_r[j] - mrc * row_c[j]) // prev
            row_r[c] = 0
        prev = piv
    X = [[Fraction(0)] * k for _ in range(n)]
    for i in range(n - 1, -1, -1):
        piv = M[i][i]
        Mi = M[i]
        for j in range(k):
            s = Fraction(Mi[n + j])
            for t in range(i + 1, n):
                if Mi[t]:
                    s -= Mi[t] * X[t][j]
            X[i][j] = s / piv
    return X


def mat_inv(A):
    return solve_right(A, identity(len(A)))


def bareiss_det(A) -> Fraction:
    """Determinant by one-step Bareiss elimination on the integer-cleared matrix."""
    n = len(A)
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    M = []
    for row in A:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        M.append([int(x * mult) for x in row])
    sign = 1
    prev = 1
    for c in range(n - 1):
        p = next((r for r in range(c, n) if M[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            sign = -sign
        piv = M[c][c]
        for r in range(c + 1, n):
            row_r, row_c = M[r], M[c]
            mrc = row_r[c]
            for j in range(c + 1, n):
                row_r[j] = (piv * row_r[j] - mrc * row_c[j]) // prev
            row_r[c] = 0
        prev = piv
    return Fraction(sign * M[n - 1][n - 1]) / scale


def rref(A):
    """Reduced row echelon form; returns (R, pivot column list)."""
    R = [list(row) for row in A]
    nrows = len(R)
    ncols = len(R[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if R[i][c] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = 1 / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(nrows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return R, pivots


def nullspace(A):
    """Basis of the right kernel of A (list of vectors)."""
    if not A:
        return []
    n = len(A[0])
    R, pivots = rref(A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def rank(A) -> int:
    return len(rref(A)[1])


def intersect_spans(B1, B2):
    """Basis of span(B1) ∩ span(B2); inputs are lists of vectors."""
    if not B1 or not B2:
        return []
    # Zassenhaus: rows [v | v] for v in B1 and [w | 0] for w in B2;
    # the echelon rows with zero left half carry the intersection on the right.
    n = len(B1[0])
    rows = [list(v) + list(v) for v in B1] + [list(w) + [Fraction(0)] * n for w in B2]
    R, pivots = rref(rows)
    out = []
    for row in R:
        if any(row[:n]):
            continue
        if any(row[n:]):
            out.append(row[n:])
    return out


# ---------------------------------------------------------------------------
# matrices over RatFunc


class RFMatrix:
    """Sparse square-or-rectangular matrix with RatFunc entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                v = _as_rf(v)
                if not v.is_zero():
                    self.entries[(i, j)] = v

    @classmethod
    def identity(cls, n: int) -> "RFMatrix":
        return cls(n, n, {(i, i): ONE_RF for i in range(n)})

    @classmethod
    def from_rows(cls, rows) -> "RFMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        ent = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                ent[(i, j)] = _as_rf(v)
        return cls(nr, nc, ent)

    def get(self, i: int, j: int) -> RatFunc:
        return self.entries.get((i, j), ZERO_RF)

    def __eq__(self, other):
        return (
            isinstance(other, RFMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __add__(self, other):
        out = dict(self.entries)
        for key, v in other.entries.items():
            s = out.get(key, ZERO_RF) + v
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return RFMatrix(self.nrows, self.ncols, out)

    def __sub__(self, other):
        return self + other.scale(RatFunc.constant(-1))

    def __mul__(self, other: "RFMatrix") -> "RFMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = {}
        for (i, j), v in other.entries.items():
            cols.setdefault(i, []).append((j, v))
        out = {}
        for (i, t), a in self.entries.items():
            for j, b in cols.get(t, ()):
                key = (i, j)
                s = out.get(key, ZERO_RF) + a * b
                out[key] = s
        return RFMatrix(self.nrows, other.ncols, out)

    def scale(self, f) -> "RFMatrix":
        f = _as_rf(f)
        return RFMatrix(self.nrows, self.ncols, {k: v * f for k, v in self.entries.items()})

    def shift(self, a) -> "RFMatrix":
        return RFMatrix(self.nrows, self.ncols, {k: v.shift(a) for k, v in self.entries.items()})

    def eval(self, x):
        """Dense Fraction matrix at u = x; PoleError at a pole."""
        out = zeros(self.nrows, self.ncols)
        for (i, j), v in self.entries.items():
            out[i][j] = v(x)
        return out

    def eval_sparse(self, x):
        """Sparse {(i, j): Fraction} at u = x; PoleError at a pole."""
        out = {}
        for key, v in self.entries.items():
            val = v(x)
            if val:
                out[key] = val
        return out

    def to_dense(self):
        out = [[ZERO_RF] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def master_denominator(self) -> Poly:
        den = Poly.constant(1)
        for v in self.entries.values():
            g = poly_gcd(den, v.den)
            den = den * (v.den // g)
        return den

    def to_json_dict(self):
        """Entry-wise numerator/denominator coefficient strings, ascending."""
        return {
            "nrows": self.nrows,
            "ncols": self.ncols,
            "entries": [
                [i, j, [str(c) for c in v.num.coeffs], [str(c) for c in v.den.coeffs]]
                for (i, j), v in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "RFMatrix":
        ent = {}
        for i, j, num, den in data["entries"]:
            ent[(i, j)] = RatFunc(Poly([Fraction(c) for c in num]),
                                  Poly([Fraction(c) for c in den]))
        return cls(data["nrows"], data["ncols"], ent)

    def __repr__(self):
        return f"RFMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


def rf_matrix_inverse(M: RFMatrix) -> RFMatrix:
    """Inverse over the rational-function field.

    Fast path: when every diagonal entry is nonzero and the off-diagonal
    support is acyclic, M is triangular in some order of its basis and sparse
    forward substitution inverts it. Otherwise Gauss-Jordan elimination. The
    result is verified by evaluating M * M^-1 at one non-pole point.
    """
    if M.nrows != M.ncols:
        raise ValueError("inverse of a non-square matrix")
    inv_mat = _triangular_inverse(M)
    if inv_mat is None:
        inv_mat = _gauss_jordan_inverse(M)
    for x in sample_points():
        try:
            prod = mat_mul(M.eval(x), inv_mat.eval(x))
        except PoleError:
            continue
        if prod != identity(M.nrows):
            raise SingularMatrixError("inverse verification failed")  # pragma: no cover
        return inv_mat


def support_order(n: int, support):
    """A basis order of range(n) in which every off-diagonal position (i, j)
    of `support` puts j before i, with each index's list of such j; None when
    the positions form a cycle. Triangular matrices of that support are solved
    by substitution along the order."""
    preds = {i: [] for i in range(n)}
    for i, j in support:
        if i != j:
            preds[i].append(j)
    try:
        return list(TopologicalSorter(preds).static_order()), preds
    except CycleError:
        return None


def _triangular_inverse(M: RFMatrix):
    """Inverse by sparse forward substitution, or None when M is not
    triangular in any basis order."""
    n = M.nrows
    if any((i, i) not in M.entries for i in range(n)):
        return None
    found = support_order(n, M.entries)
    if found is None:
        return None
    order, preds = found
    # row i of M^-1 is (e_i - sum_j M[i][j] row j of M^-1) / M[i][i]
    inv_rows = {}
    for i in order:
        row = {i: ONE_RF}
        for j in preds[i]:
            f = -M.entries[(i, j)]
            for c, v in inv_rows[j].items():
                term = f * v
                cur = row.get(c)
                row[c] = term if cur is None else cur + term
        d = M.entries[(i, i)].inverse()
        inv_rows[i] = {c: v * d for c, v in row.items() if not v.is_zero()}
    return RFMatrix(n, n, {(i, c): v for i, row in inv_rows.items() for c, v in row.items()})


def _gauss_jordan_inverse(M: RFMatrix) -> RFMatrix:
    n = M.nrows
    A = M.to_dense()
    B = [[ONE_RF if i == j else ZERO_RF for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if not A[r][c].is_zero()), None)
        if p is None:
            raise SingularMatrixError("rational-function matrix is singular")
        if p != c:
            A[c], A[p] = A[p], A[c]
            B[c], B[p] = B[p], B[c]
        inv = A[c][c].inverse()
        A[c] = [x * inv for x in A[c]]
        B[c] = [x * inv for x in B[c]]
        for r in range(n):
            if r != c and not A[r][c].is_zero():
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
                B[r] = [x - f * y for x, y in zip(B[r], B[c])]
    return RFMatrix.from_rows(B)


def sample_points():
    """Deterministic stream 0, 1, -1, 2, -2, ... as Fractions."""
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def interpolate_poly(points, values) -> Poly:
    """Newton interpolation through all the (distinct) points."""
    n = len(points)
    coef = [rat(v) for v in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (points[i] - points[i - j])
    top = n - 1
    while top >= 0 and coef[top] == 0:
        top -= 1
    if top < 0:
        return Poly()
    poly = Poly.constant(coef[top])
    for i in range(top - 1, -1, -1):
        poly = poly * Poly((-points[i], 1)) + Poly.constant(coef[i])
    return poly


def _verified(f: RatFunc, points, values, deg_num, deg_den):
    if f.num.degree > deg_num or f.den.degree > deg_den:
        return None
    for x, v in zip(points, values):
        if f.den(x) == 0 or f(x) != v:
            return None
    return f


def _fit_ratfunc(points, values, deg_num: int, deg_den: int, master: Poly | None = None) -> RatFunc:
    """Least-degree rational interpolant within the given bounds.

    Fast path: Cauchy interpolation by the extended Euclidean algorithm on
    (prod (u - x_i), Newton interpolant), cut at numerator degree deg_num.
    Fallback: the homogeneous linear system num(x) - v den(x) = 0. Every
    candidate is verified against all samples after reduction.
    """
    F = interpolate_poly(points, values)
    if F.degree <= deg_num:
        candidate = _verified(RatFunc(F), points, values, deg_num, deg_den)
        if candidate is not None:
            return candidate
    r0, r1 = (master if master is not None else Poly.from_roots(points)), F
    t0, t1 = Poly(), Poly.constant(1)
    while not r1.is_zero() and r1.degree > deg_num:
        q, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        t0, t1 = t1, t0 - q * t1
    if not t1.is_zero() and not r1.is_zero():
        candidate = _verified(RatFunc(r1, t1), points, values, deg_num, deg_den)
        if candidate is not None:
            return candidate
    # fallback: overdetermined homogeneous solve (also handles edge cases the
    # Euclidean route rejects, e.g. common factors at sample points)
    rows = []
    for x, v in zip(points, values):
        xp = [Fraction(1)]
        for _ in range(max(deg_num, deg_den)):
            xp.append(xp[-1] * x)
        rows.append([xp[i] for i in range(deg_num + 1)] + [-v * xp[j] for j in range(deg_den + 1)])
    for vec in nullspace(rows):
        den = Poly(vec[deg_num + 1:])
        if den.is_zero():
            continue
        f = _verified(RatFunc(Poly(vec[: deg_num + 1]), den), points, values, deg_num, deg_den)
        if f is not None:
            return f
    raise InconsistentSamplesError(
        f"no rational function with deg(num) <= {deg_num}, deg(den) <= {deg_den} fits"
    )


def rf_from_samples(samples, deg_num_bound: int, deg_den_bound: int) -> RFMatrix:
    """Entrywise rational-function interpolation of matrix-valued samples.

    samples: sequence of (point, dense Fraction matrix). Points must be
    pairwise distinct and number at least deg_num_bound + deg_den_bound + 1.
    """
    points = [rat(x) for x, _ in samples]
    if len(set(points)) != len(points):
        raise ValueError("sample points must be pairwise distinct")
    if len(points) < deg_num_bound + deg_den_bound + 1:
        raise InsufficientSamplesError(
            f"need at least {deg_num_bound + deg_den_bound + 1} samples, got {len(points)}"
        )
    mats = [m for _, m in samples]
    nrows = len(mats[0])
    ncols = len(mats[0][0]) if nrows else 0
    master = Poly.from_roots(points)
    ent = {}
    for i in range(nrows):
        for j in range(ncols):
            vals = [m[i][j] for m in mats]
            if any(vals):
                f = _fit_ratfunc(points, vals, deg_num_bound, deg_den_bound, master)
                if not f.is_zero():
                    ent[(i, j)] = f
    return RFMatrix(nrows, ncols, ent)
