"""Yangian operator layer: evaluation/tensor/skew actions, quasideterminant
series d_k/x_k/y_k, Berezinian, and module twists.

Everything lives in the u-normalized convention: each tensor factor carries
one power of u, so evaluation-module t-matrices are degree-one polynomials
and all displayed operator identities hold verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import (
    InternalInvariantViolation,
    InvarianceViolationError,
    PoleError,
    PoleHitError,
    ShapeMismatchError,
    SingularMatrixError,
)
from .exact import (
    Poly,
    RatFunc,
    RFMatrix,
    identity,
    mat_inv,
    mat_mul,
    mat_sub,
    rat,
    rf_matrix_inverse,
    sample_points,
    zeros,
)
from .glmod import GlModule, build_module, singular_subspace
from .patterns import SuperShape, check_admissible, zz_key


def gamma(m: int, k: int) -> Fraction:
    """gamma_k = -k+1 for k <= m, -2m+k for k > m."""
    return Fraction(-k + 1) if k <= m else Fraction(-2 * m + k)


def gamma_table(shape: SuperShape):
    return tuple(gamma(shape.m, k) for k in range(1, shape.size + 1))


@dataclass(frozen=True)
class Factor:
    """One tensor factor: the skew data it was built from."""

    lam: tuple
    mu: tuple
    r: int
    h: Fraction
    patterns: tuple  # ambient GTPatterns spanning the factor


class YangianModule:
    """A module over Y(gl(m|n)) with explicit t_{ij}(u) matrices."""

    def __init__(self, shape: SuperShape, t, parity, deg_keys, factors, labels):
        self.shape = shape
        self.t = t  # {(i, j): RFMatrix}, 1-based indices
        self.parity = tuple(parity)
        self.deg_keys = tuple(tuple(k) for k in deg_keys)
        self.factors = tuple(factors)
        self.labels = tuple(labels)  # per basis vector: tuple of factor pattern indices
        self.dim = t[(1, 1)].nrows
        self._series = None
        self._point_cache = {}

    @property
    def m(self):
        return self.shape.m

    @property
    def n(self):
        return self.shape.n

    def blocks_at(self, u0):
        """Dense (m+n) x (m+n) grid of D x D numeric blocks of T(u0)."""
        size = self.shape.size
        return [[self.t[(i + 1, j + 1)].eval(u0) for j in range(size)] for i in range(size)]

    def t1_matrix(self, i: int, j: int):
        """The u^{N-1} coefficient of t_{ij}(u) expanded at infinity: the image
        of the generator t^{(1)}_{ij} in this module."""
        if i == j:
            raise ValueError("use the t-matrix itself for diagonal data")
        ent = self.t[(i, j)]
        top = len(self.factors) - 1
        out = {}
        for (a, b), v in ent.entries.items():
            q = v.num // v.den
            c = q.coeffs[top] if q.degree >= top else Fraction(0)
            if c:
                out[(a, b)] = c
        return out

    def gl_generator(self, i: int, j: int):
        """Matrix of e_{ij} through iota: (-1)^{bar i} t^{(1)}_{ij}."""
        sign = Fraction(-1 if self.shape.parity(i) else 1)
        return {k: sign * v for k, v in self.t1_matrix(i, j).items()}


def evaluation_action(mod: GlModule, h) -> YangianModule:
    """t_{ij}(u) = (u + h) delta_{ij} + (-1)^{bar i} E_{ij} on the module."""
    h = rat(h)
    shape = mod.shape
    size = shape.size
    D = mod.dim
    u_plus_h = RatFunc(Poly((h, 1)))
    t = {}
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            ent = {}
            sign = -1 if shape.parity(i) else 1
            for (a, b), v in mod.generator(i, j).items():
                ent[(a, b)] = RatFunc(Poly.constant(sign * v))
            if i == j:
                for a in range(D):
                    ent[(a, a)] = ent.get((a, a), RatFunc(Poly())) + u_plus_h
            t[(i, j)] = RFMatrix(D, D, ent)
    factor = Factor(tuple(mod.weight), (), 0, h, tuple(mod.basis))
    deg_keys = [(zz_key(p.zz_degree()),) for p in mod.basis]
    labels = [(a,) for a in range(D)]
    return YangianModule(shape, t, mod.parity, deg_keys, (factor,), labels)


# ---------------------------------------------------------------------------
# Schur-complement sweeps: symbolic over RFMatrix blocks, and pointwise


def _sweep(blocks, steps: int):
    """Block Gaussian elimination in place over RFMatrix blocks.

    Step k inverts the pivot blocks[k][k] and updates only blocks[i][j] with
    i, j > k. After steps 0..s-1, blocks[i][j] for i, j >= s holds the
    quasideterminant |rows 1..s, i; cols 1..s, j|.
    """
    size = len(blocks)
    for k in range(steps):
        pinv = rf_matrix_inverse(blocks[k][k])
        for j in range(k + 1, size):
            if blocks[k][j].is_zero():
                continue
            right = pinv * blocks[k][j]
            for i in range(k + 1, size):
                if not blocks[i][k].is_zero():
                    blocks[i][j] = blocks[i][j] - blocks[i][k] * right
    return blocks


class BadSamplePoint(Exception):
    pass


def _gt_point_raw(ym: YangianModule, u0):
    """All d_k(u0), x_k(u0), y_k(u0) from one elimination sweep."""
    size = ym.shape.size
    try:
        blocks = ym.blocks_at(u0)
    except PoleError as exc:
        raise BadSamplePoint(str(exc)) from exc
    out = {}
    for k in range(size):
        out[("d", k + 1)] = blocks[k][k]
        if k + 1 < size:
            out[("x", k + 1)] = blocks[k][k + 1]
            out[("y", k + 1)] = blocks[k + 1][k]
            try:
                pinv = mat_inv(blocks[k][k])
            except SingularMatrixError as exc:
                raise BadSamplePoint(str(exc)) from exc
            for i in range(k + 1, size):
                left = mat_mul(blocks[i][k], pinv)
                for j in range(k + 1, size):
                    blocks[i][j] = mat_sub(blocks[i][j], mat_mul(left, blocks[k][j]))
    return out


def gt_point(ym: YangianModule, u0):
    """Cached pointwise GT operators; PoleHitError when u0 is unusable."""
    u0 = rat(u0)
    if u0 in ym._point_cache:
        val = ym._point_cache[u0]
        if val is None:
            raise PoleHitError(f"GT operators undefined at u = {u0}")
        return val
    try:
        val = _gt_point_raw(ym, u0)
    except BadSamplePoint as exc:
        ym._point_cache[u0] = None
        raise PoleHitError(f"GT operators undefined at u = {u0}: {exc}") from exc
    ym._point_cache[u0] = val
    return val


def gt_series(ym: YangianModule):
    """All d_k(u), x_k(u), y_k(u) as exact RFMatrices (cached on the module).

    One symbolic sweep over T(u). Step k touches only blocks i, j > k, so
    d_k = blocks[k-1][k-1], x_k = blocks[k-1][k] and y_k = blocks[k][k-1]
    survive in the final state.
    """
    if ym._series is not None:
        return ym._series
    size = ym.shape.size
    blocks = [[ym.t[(i + 1, j + 1)] for j in range(size)] for i in range(size)]
    _sweep(blocks, size - 1)
    series = {("d", k): blocks[k - 1][k - 1] for k in range(1, size + 1)}
    series.update({("x", k): blocks[k - 1][k] for k in range(1, size)})
    series.update({("y", k): blocks[k][k - 1] for k in range(1, size)})
    ym._series = series
    return series


def d_series(ym: YangianModule, k: int) -> RFMatrix:
    return gt_series(ym)[("d", k)]


def quasidet(blocks, i: int, j: int) -> RFMatrix:
    """|A|_{ij} over End(V)-valued rational functions; blocks is a k x k array
    of equal-size RFMatrix and (i, j) are 1-based box coordinates.

    Row i and column j move last, and k - 1 sweep steps leave the
    quasideterminant in the corner.
    """
    k = len(blocks)
    rows = [r for r in range(k) if r != i - 1] + [i - 1]
    cols = [c for c in range(k) if c != j - 1] + [j - 1]
    grid = [[blocks[r][c] for c in cols] for r in rows]
    return _sweep(grid, k - 1)[k - 1][k - 1]


# ---------------------------------------------------------------------------
# tensor products


def tensor_action(factors) -> YangianModule:
    """Coproduct action on the graded tensor product, two factors at a time."""
    factors = list(factors)
    if not factors:
        raise ValueError("tensor of zero factors")
    out = factors[0]
    for nxt in factors[1:]:
        out = _tensor_pair(out, nxt)
    return out


def _tensor_pair(A: YangianModule, B: YangianModule) -> YangianModule:
    if A.shape != B.shape:
        raise ShapeMismatchError(f"tensor factors over {A.shape} and {B.shape}")
    shape = A.shape
    size = shape.size
    DA, DB = A.dim, B.dim
    D = DA * DB
    t = {}
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            ent = {}
            pj = shape.parity(j)
            for k in range(1, size + 1):
                ta = A.t[(i, k)]
                tb = B.t[(k, j)]
                if not ta.entries or not tb.entries:
                    continue
                podd = (shape.parity(k) + pj) % 2
                for (a, a2), va in ta.entries.items():
                    sign = -1 if (podd and A.parity[a2]) else 1
                    for (b, b2), vb in tb.entries.items():
                        key = (a * DB + b, a2 * DB + b2)
                        term = va * vb if sign == 1 else va * vb * Fraction(-1)
                        cur = ent.get(key)
                        ent[key] = term if cur is None else cur + term
            t[(i, j)] = RFMatrix(D, D, ent)
    parity = [(A.parity[a] + B.parity[b]) % 2 for a in range(DA) for b in range(DB)]
    deg_keys = [A.deg_keys[a] + B.deg_keys[b] for a in range(DA) for b in range(DB)]
    labels = [A.labels[a] + B.labels[b] for a in range(DA) for b in range(DB)]
    return YangianModule(shape, t, parity, deg_keys, A.factors + B.factors, labels)


# ---------------------------------------------------------------------------
# skew modules


def skew_action(shape: SuperShape, lam, mu, h) -> YangianModule:
    """L_h(lam/mu) over Y(gl(m|n)) via the psi_r quasideterminants, restricted
    to the gl_r singular subspace of the ambient evaluation module."""
    mu = tuple(int(x) for x in mu)
    r = len(mu)
    h = rat(h)
    amb_shape = SuperShape(shape.m + r, shape.n)
    check_admissible(amb_shape, tuple(lam), mu)
    amb = build_module(amb_shape, lam)
    amb_ym = evaluation_action(amb, h)
    if r == 0:
        return amb_ym
    sub = singular_subspace(amb, mu)
    size = shape.size
    amb_size = amb_shape.size
    sub_pos = {a: t for t, a in enumerate(sub)}
    blocks = [[amb_ym.t[(i + 1, j + 1)] for j in range(amb_size)] for i in range(amb_size)]
    for row in blocks:
        for j in range(r, amb_size):  # only the singular columns; the rows stay full
            ent = {(a, sub_pos[b]): v for (a, b), v in row[j].entries.items() if b in sub_pos}
            row[j] = RFMatrix(amb.dim, len(sub), ent)
    _sweep(blocks, r)

    t = {}
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            ent = {}
            for (a, b), v in blocks[r + i - 1][r + j - 1].entries.items():
                if a not in sub_pos:
                    raise InvarianceViolationError(
                        f"psi_{r}(t_{i}{j}) leaks out of the singular subspace at row {a}"
                    )
                ent[(sub_pos[a], b)] = v
            t[(i, j)] = RFMatrix(len(sub), len(sub), ent)

    patterns = tuple(amb.basis[a] for a in sub)
    parity = [amb.parity[a] for a in sub]
    deg_keys = [(zz_key(p.zz_degree()),) for p in patterns]
    labels = [(a,) for a in range(len(sub))]
    factor = Factor(tuple(int(x) for x in lam), mu, r, h, patterns)
    return YangianModule(shape, t, parity, deg_keys, (factor,), labels)


# ---------------------------------------------------------------------------
# twists


def twist_omega_f(ym: YangianModule, f: RatFunc) -> YangianModule:
    """omega_f: multiply every t_{ij}(u) by the scalar function f(u)."""
    if not (f.num.is_zero() or (f.num.lc() == 1 and f.den.lc() == 1)):
        raise ValueError("twist function must have leading term 1")
    t = {key: mat.scale(f) for key, mat in ym.t.items()}
    return YangianModule(ym.shape, t, ym.parity, ym.deg_keys, ym.factors, ym.labels)


def flip_twist(ym: YangianModule) -> YangianModule:
    """Pull back through rho_{m|n} o st: a Y(gl(n|m))-module on the same space.

    t~_{ab}(u) = (-1)^{bar j (bar i + 1)} t_{m+n+1-b, m+n+1-a}(u) with
    i = m+n+1-b, j = m+n+1-a in the original gl(m|n) grading.
    """
    shape = ym.shape
    size = shape.size
    new_shape = SuperShape(shape.n, shape.m)
    t = {}
    for a in range(1, size + 1):
        for b in range(1, size + 1):
            i = size + 1 - b
            j = size + 1 - a
            pi, pj = shape.parity(i), shape.parity(j)
            sign = -1 if (pj and (pi + 1) % 2) else 1
            mat = ym.t[(i, j)]
            t[(a, b)] = mat if sign == 1 else mat.scale(RatFunc.constant(-1))
    return YangianModule(new_shape, t, ym.parity, ym.deg_keys, ym.factors, ym.labels)


# ---------------------------------------------------------------------------
# verification suites


def _pick_point_pairs(ym: YangianModule, count: int):
    """Deterministic non-pole (u, v) pairs with u != v."""
    pts = []
    stream = sample_points()
    while len(pts) < 2 * count:
        u0 = next(stream)
        try:
            ym.blocks_at(u0)
        except PoleError:
            continue
        pts.append(u0)
    return [(pts[2 * t], pts[2 * t + 1]) for t in range(count)]


def verify_defining_relations(ym: YangianModule, pairs=None):
    """Check (u-v)[t_ij(u), t_kl(v)] = (-1)^{...}(t_kj(u)t_il(v) - t_kj(v)t_il(u))
    entrywise at sampled point pairs. Returns a list of violations."""
    from .glmod import smat_eq, smat_mul, smat_scale, smat_sub

    size = ym.shape.size
    if pairs is None:
        pairs = _pick_point_pairs(ym, 3)
    violations = []
    par = [ym.shape.parity(i) for i in range(1, size + 1)]
    for (u0, v0) in pairs:
        u0, v0 = rat(u0), rat(v0)
        if u0 == v0:
            raise ValueError("need u != v")
        Tu = {key: mat.eval_sparse(u0) for key, mat in ym.t.items()}
        Tv = {key: mat.eval_sparse(v0) for key, mat in ym.t.items()}
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                pij = (par[i - 1] + par[j - 1]) % 2
                for k in range(1, size + 1):
                    for l in range(1, size + 1):
                        pkl = (par[k - 1] + par[l - 1]) % 2
                        a, bv = Tu[(i, j)], Tv[(k, l)]
                        csign = -1 if (pij and pkl) else 1
                        lhs = smat_sub(smat_mul(a, bv), smat_scale(smat_mul(bv, a), csign))
                        lhs = smat_scale(lhs, u0 - v0)
                        sgn = (-1) ** (
                            par[i - 1] * par[j - 1]
                            + par[i - 1] * par[k - 1]
                            + par[j - 1] * par[k - 1]
                        )
                        rhs = smat_sub(
                            smat_mul(Tu[(k, j)], Tv[(i, l)]),
                            smat_mul(Tv[(k, j)], Tu[(i, l)]),
                        )
                        rhs = smat_scale(rhs, sgn)
                        if not smat_eq(lhs, rhs):
                            violations.append((str(u0), str(v0), i, j, k, l))
    return violations


def _pick_gt_points(ym: YangianModule, count: int):
    """Deterministic points where every GT operator evaluates cleanly."""
    pts = []
    stream = sample_points()
    tried = 0
    while len(pts) < count:
        u0 = next(stream)
        tried += 1
        if tried > 200 + 40 * count:
            raise InternalInvariantViolation("no usable GT sample points found")
        try:
            gt_point(ym, u0)
        except PoleHitError:
            continue
        pts.append(u0)
    return pts


def verify_gt_lemmas(ym: YangianModule, pairs=None):
    """Operator identities for the GT generators at sampled points:

    - [d_k(u), E_{k,k+1}] = x_k(u) and [E_{k+1,k}, d_k(u)] = y_k(u)
    - the four (u, v) exchange relations between d_k and x_k/y_k
    - [d_k(u), x_l(v)] = [d_k(u), y_l(v)] = 0 for k < l
    - [d_k(u), d_l(v)] = 0
    Returns a list of violation labels.
    """
    from .glmod import smat_to_dense

    size = ym.shape.size
    if pairs is None:
        pts = _pick_gt_points(ym, 4)
        pairs = [(pts[0], pts[1]), (pts[2], pts[3])]
    bad = []
    for (u0, v0) in pairs:
        gu = gt_point(ym, u0)
        gv = gt_point(ym, v0)
        for k in range(1, size):
            # The generators entering the Lemma are (-1)^{bar k} t^(1): this
            # matches iota(E) except at k = m, where the Lemma's convention
            # differs from iota by the sign forced by (def-rel).
            ks = Fraction(-1 if ym.shape.parity(k) else 1)
            E_up = smat_to_dense(
                {key: ks * v for key, v in ym.t1_matrix(k, k + 1).items()}, ym.dim, ym.dim
            )
            E_dn = smat_to_dense(
                {key: ks * v for key, v in ym.t1_matrix(k + 1, k).items()}, ym.dim, ym.dim
            )
            dk, xk, yk = gu[("d", k)], gu[("x", k)], gu[("y", k)]
            if mat_sub(mat_mul(dk, E_up), mat_mul(E_up, dk)) != xk:
                bad.append(("xy-lemma-x", k, str(u0)))
            if mat_sub(mat_mul(E_dn, dk), mat_mul(dk, E_dn)) != yk:
                bad.append(("xy-lemma-y", k, str(u0)))
        sgn = lambda k: Fraction(-1 if ym.shape.parity(k) else 1)
        for k in range(1, size):
            du, dv = gu[("d", k)], gv[("d", k)]
            xu, xv = gu[("x", k)], gv[("x", k)]
            yu, yv = gu[("y", k)], gv[("y", k)]
            scale = u0 - v0
            lhs = [[scale * e for e in row] for row in mat_sub(mat_mul(du, yv), mat_mul(yv, du))]
            rhs = [[sgn(k) * e for e in row] for row in mat_sub(mat_mul(yu, dv), mat_mul(yv, du))]
            if lhs != rhs:
                bad.append(("com1-1", k, str(u0), str(v0)))
            lhs = [[scale * e for e in row] for row in mat_sub(mat_mul(du, xv), mat_mul(xv, du))]
            rhs = [[sgn(k) * e for e in row] for row in mat_sub(mat_mul(xv, du), mat_mul(xu, dv))]
            if lhs != rhs:
                bad.append(("com1-2", k, str(u0), str(v0)))
            if mat_sub(mat_mul(yu, dv), mat_mul(yv, du)) != mat_sub(
                mat_mul(dv, yu), mat_mul(du, yv)
            ):
                bad.append(("com1-3", k, str(u0), str(v0)))
            if mat_sub(mat_mul(xv, du), mat_mul(xu, dv)) != mat_sub(
                mat_mul(du, xv), mat_mul(dv, xu)
            ):
                bad.append(("com1-4", k, str(u0), str(v0)))
        for k in range(1, size + 1):
            for l in range(k + 1, size + 1):
                du, dlv = gu[("d", k)], gv[("d", l)]
                if mat_mul(du, dlv) != mat_mul(dlv, du):
                    bad.append(("d-commute", k, l, str(u0), str(v0)))
                if l <= size - 1:
                    xlv, ylv = gv[("x", l)], gv[("y", l)]
                    if mat_mul(du, xlv) != mat_mul(xlv, du):
                        bad.append(("com1-5-x", k, l, str(u0), str(v0)))
                    if mat_mul(du, ylv) != mat_mul(ylv, du):
                        bad.append(("com1-5-y", k, l, str(u0), str(v0)))
    return bad


# ---------------------------------------------------------------------------
# Berezinian


def berezinian_factors(ym: YangianModule):
    """B_1(u), ..., B_{m+n}(u) with B_k = prod_{j<=k} d_j(u + gamma_j)^{+-1}, the
    power +1 for j <= m and -1 beyond, plus B(u) = B_{m+n}(u). Exact products
    of the shifted symbolic series."""
    series = gt_series(ym)
    out = []
    for k, g in enumerate(gamma_table(ym.shape), 1):
        dk = series[("d", k)].shift(g) if g else series[("d", k)]
        if k > ym.m:
            dk = rf_matrix_inverse(dk)
        out.append(out[-1] * dk if out else dk)
    return out, out[-1]


def berezinian_point(ym: YangianModule, u0):
    """B(u0) from the cached pointwise d_k(u0 + gamma_k); PoleHitError where a
    d_k is undefined or an inverted one is singular."""
    u0 = rat(u0)
    acc = None
    for k, g in enumerate(gamma_table(ym.shape), 1):
        dk = gt_point(ym, u0 + g)[("d", k)]
        if k > ym.m:
            try:
                dk = mat_inv(dk)
            except SingularMatrixError as exc:
                raise PoleHitError(f"d_{k} is singular at u = {u0 + g}") from exc
        acc = dk if acc is None else mat_mul(acc, dk)
    return acc


def berezinian_pole_bound(ym: YangianModule) -> int:
    """An upper bound on the number of u0 at which `berezinian_point` or
    `berezinian_direct_point` fails.

    Both routes evaluate T only at v = u0 + gamma_k, and each fails at v only
    if v is a pole of T or a zero of some det d_k: where T(v) is finite and
    the earlier pivots are invertible, the pointwise pivots are the symbolic
    d_k(v), and det T = prod_k det d_k. With q the master denominator of d_k,
    det d_k = det(q d_k) / q^D, and the polynomial det(q d_k) has degree at
    most the sum of its row degrees. Each bad v spoils one u0 per distinct
    gamma_k.
    """
    bad = sum(t.master_denominator().degree for t in ym.t.values())
    series = gt_series(ym)
    for k in range(1, ym.shape.size + 1):
        dk = series[("d", k)]
        q = dk.master_denominator().degree
        rows = {}
        for (a, _), v in dk.entries.items():
            rows[a] = max(rows.get(a, 0), v.num.degree + q - v.den.degree)
        bad += sum(rows.values())
    return len(set(gamma_table(ym.shape))) * bad


def berezinian_direct_point(ym: YangianModule, u0):
    """B(u0) straight from its defining double permutation sum; PoleError
    where some T(u0 + gamma_a) is undefined or singular."""
    shape = ym.shape
    m, n = shape.m, shape.n
    size = shape.size
    gammas = gamma_table(shape)
    u0 = rat(u0)

    def t_at(i, j, v):
        return ym.t[(i, j)].eval(v)

    tprime_cache = {}

    def tprime(i, j, v):
        if (i, j, v) not in tprime_cache:
            blocks = ym.blocks_at(v)
            D = ym.dim
            flat = zeros(size * D, size * D)
            for a in range(size):
                for b in range(size):
                    for x in range(D):
                        for y in range(D):
                            flat[a * D + x][b * D + y] = blocks[a][b][x][y]
            try:
                inv = mat_inv(flat)
            except SingularMatrixError as exc:
                raise PoleHitError(f"T(u) is singular at u = {v}") from exc
            for a in range(1, size + 1):
                for b in range(1, size + 1):
                    tprime_cache[(a, b, v)] = [
                        [inv[(a - 1) * D + x][(b - 1) * D + y] for y in range(D)]
                        for x in range(D)
                    ]
        return tprime_cache[(i, j, v)]

    even = zeros(ym.dim, ym.dim)
    for sigma in permutations(range(1, m + 1)):
        sgn = _perm_sign(sigma)
        term = identity(ym.dim)
        for a in range(1, m + 1):
            term = mat_mul(term, t_at(sigma[a - 1], a, u0 + gammas[a - 1]))
        term = [[sgn * x for x in row] for row in term]
        even = [[p + q for p, q in zip(r1, r2)] for r1, r2 in zip(even, term)]
    if m == 0:
        even = identity(ym.dim)
    odd = zeros(ym.dim, ym.dim)
    for tau in permutations(range(1, n + 1)):
        sgn = _perm_sign(tau)
        term = identity(ym.dim)
        for b in range(1, n + 1):
            term = mat_mul(term, tprime(m + b, m + tau[b - 1], u0 + gammas[m + b - 1]))
        term = [[sgn * x for x in row] for row in term]
        odd = [[p + q for p, q in zip(r1, r2)] for r1, r2 in zip(odd, term)]
    if n == 0:
        odd = identity(ym.dim)
    return mat_mul(even, odd)


def _perm_sign(perm) -> int:
    sgn = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sgn = -sgn
    return sgn


def coefficient_matrices(ym: YangianModule):
    """Sparse numeric matrices spanning the action algebra: the u-coefficients
    of every t_{ij}(u) after clearing its master denominator."""
    out = []
    for key in sorted(ym.t):
        mat = ym.t[key]
        den = mat.master_denominator()
        coeffs = {}
        for (a, b), v in mat.entries.items():
            num = v.num * (den // v.den)
            for p, c in enumerate(num.coeffs):
                if c:
                    coeffs.setdefault(p, {})[(a, b)] = c
        for p in sorted(coeffs):
            out.append(coeffs[p])
    return out
