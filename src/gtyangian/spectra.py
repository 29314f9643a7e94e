"""Gelfand-Tsetlin spectra: closed-form eigenvalues, simultaneous
diagonalization and tameness verdicts, the lowering-chain eigenvector
construction, and simplicity checks."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantViolation, PoleError, PoleHitError
from .exact import (
    Poly,
    RatFunc,
    RFMatrix,
    ZERO_RF,
    intersect_spans,
    mat_vec,
    nullspace,
    poly_gcd,
    poly_str,
    rank,
    rat,
    rf_str,
    rref,
    sample_points,
    support_order,
)
from .patterns import GTPattern, top_pattern
from .yangian import Factor, YangianModule, gamma, gt_series


# ---------------------------------------------------------------------------
# closed-form eigenvalues


def zeta(pattern: GTPattern, k: int, r: int, h) -> RatFunc:
    """Eigenvalue of d_k(u) on the pattern vector of L_h(lambda/mu).

    The pattern lives over the ambient gl(m+r|n); k indexes the small algebra.
    """
    h = rat(h)
    m = pattern.shape.m - r
    n = pattern.shape.n
    if not 1 <= k <= m + n:
        raise ValueError(f"k = {k} outside 1..{m + n}")
    l = pattern.l_coord
    shift = -gamma(m, k) + r + h  # argument offset: u + gamma_k -> u, then +h
    num, den = [], []
    if k <= m:
        num = [shift + l(r + k, a) for a in range(1, r + k + 1)]
        den = [shift + l(r + k - 1, a) for a in range(1, r + k)]
    else:
        j = k - m
        num = [shift + l(m + r + j - 1, a) for a in range(1, m + r + 1)]
        num += [shift + l(m + r + j, m + r + b) for b in range(1, j + 1)]
        den = [shift + l(m + r + j, a) for a in range(1, m + r + 1)]
        den += [shift + l(m + r + j - 1, m + r + b) for b in range(1, j)]
    return RatFunc(Poly.from_roots([-x for x in num]), Poly.from_roots([-x for x in den]))


def chi(pattern: GTPattern, k: int, r: int, h) -> RatFunc:
    """Eigenvalue of B_k(u) on the pattern vector of L_h(lambda/mu)."""
    h = rat(h)
    m = pattern.shape.m - r
    n = pattern.shape.n
    if not 1 <= k <= m + n:
        raise ValueError(f"k = {k} outside 1..{m + n}")
    mu = pattern.rows[r - 1] if r else ()
    l = pattern.l_coord
    o = [mu[a - 1] - a + 1 for a in range(1, r + 1)]
    num, den = [], []
    if k <= m:
        num = [h + r + l(r + k, a) for a in range(1, r + k + 1)]
        den = [h + r + x for x in o]
    else:
        j = k - m
        num = [h + r + l(r + m + j, a) for a in range(1, r + m + 1)]
        den = [h + r + x for x in o]
        den += [h + r + l(r + m + j, r + m + b) for b in range(1, j + 1)]
    return RatFunc(Poly.from_roots([-x for x in num]), Poly.from_roots([-x for x in den]))


def zeta_product(factors, patterns, k: int) -> RatFunc:
    """Diagonal GT eigenvalue of d_k(u) on a tensor of pattern vectors."""
    out = RatFunc.constant(1)
    for f, p in zip(factors, patterns):
        out = out * zeta(p, k, f.r, f.h)
    return out


# ---------------------------------------------------------------------------
# spectra


@dataclass
class SpectrumReport:
    tame: bool
    eigen: list  # (vector coords, {k: RatFunc}) when tame
    witness: object  # (k, u0, minimal-poly string) when not tame
    collisions: list  # pairs of basis indices sharing all diagonal eigenvalues

    @property
    def simple_spectrum(self) -> bool:
        return self.tame and not self.collisions

    def to_json_dict(self):
        out = {"verdict": "tame" if self.tame else "not_tame"}
        if self.tame:
            out["eigen"] = [
                {
                    "vector": [str(x) for x in vec],
                    "d": {str(k): rf_str(f) for k, f in sorted(vals.items())},
                }
                for vec, vals in self.eigen
            ]
            out["separation"] = (
                "simple" if not self.collisions else [list(p) for p in self.collisions]
            )
        else:
            k, u0, cert = self.witness
            out["witness"] = {"k": k, "u0": str(u0), "min_poly": cert}
        return out


def _poly_kernel(mat: RFMatrix, alpha: RatFunc):
    """Exact kernel of (mat - alpha I) over constant vectors.

    Clears denominators to a polynomial matrix and stacks the u-coefficient
    matrices into one numeric kernel computation.
    """
    D = mat.nrows
    den = mat.master_denominator()
    g = poly_gcd(den, alpha.den)
    den = den * (alpha.den // g)
    entries = {}
    max_deg = -1
    for (a, b), v in mat.entries.items():
        p = v.num * (den // v.den)
        entries[(a, b)] = p
        max_deg = max(max_deg, p.degree)
    ad = alpha.num * (den // alpha.den)
    for a in range(D):
        p = entries.get((a, a), Poly()) - ad
        entries[(a, a)] = p
        max_deg = max(max_deg, p.degree)
    rows = []
    for t in range(max_deg + 1):
        block = [[Fraction(0)] * D for _ in range(D)]
        any_nonzero = False
        for (a, b), p in entries.items():
            if p.degree >= t and p.coeffs[t]:
                block[a][b] = p.coeffs[t]
                any_nonzero = True
        if any_nonzero:
            rows.extend(block)
    if not rows:
        return [[Fraction(int(i == j)) for j in range(D)] for i in range(D)]
    return nullspace(rows)


def _min_poly(M):
    """Minimal polynomial of a dense numeric matrix by Krylov chains."""
    D = len(M)
    mp = Poly.constant(1)
    for start in range(D):
        v = [Fraction(int(i == start)) for i in range(D)]
        chain = [v]
        while True:
            nxt = mat_vec(M, chain[-1])
            rows = [list(c) for c in chain] + [list(nxt)]
            if rank(rows) < len(rows):
                break
            chain.append(nxt)
        ns = nullspace([list(col) for col in zip(*(chain + [mat_vec(M, chain[-1])]))])
        coeffs = ns[0]
        local = Poly(coeffs).monic()
        g = poly_gcd(mp, local)
        mp = (mp * local) // g
    return mp.monic()


def gt_spectrum(ym: YangianModule) -> SpectrumReport:
    """Diagonalize the d_k(u) family exactly."""
    series = gt_series(ym)
    return family_spectrum({k: series[("d", k)] for k in range(1, ym.shape.size + 1)})


def family_spectrum(mats) -> SpectrumReport:
    """Spectrum of a commuting family {k: d_k} of RFMatrices.

    Candidate eigenvalues are the diagonal entries (the block-triangular
    structure of the coproduct puts the zeta products there). When their
    tuples are pairwise distinct, the eigenvectors come from exact
    substitution; any collision, and any failure of that route, leaves the
    whole family to the kernel route.
    """
    tuples = _diagonal_tuples(mats)
    if len(set(tuples)) == len(tuples):
        eigen = _substitution_eigen(mats, tuples)
        if eigen is not None:
            return SpectrumReport(True, eigen, None, [])
    return kernel_spectrum(mats)


def _diagonal_tuples(mats):
    """(d_1[a][a], ..., d_size[a][a]) for every basis index a."""
    D = mats[1].nrows
    return [tuple(mats[k].get(a, a) for k in range(1, len(mats) + 1)) for a in range(D)]


def _substitution_eigen(mats, tuples):
    """One joint eigenvector per basis index, for pairwise distinct tuples.

    The union of the off-diagonal supports of the d_k is ordered so that every
    d_k is triangular. For index a with tuple alpha, w_a = 1, w vanishes before
    a, and each later w_c is solved from a d_k whose diagonal differs from
    alpha_k at c. Every equation d_k w = alpha_k w is then checked exactly, and
    w is scaled to lead with 1 in basis order. Returns None when the support is
    cyclic, a coordinate is not constant, or an equation fails.
    """
    D = len(tuples)
    ks = range(1, len(mats) + 1)
    found = support_order(D, {pos for m in mats.values() for pos in m.entries})
    if found is None:
        return None
    order, _ = found
    rows = {k: [[] for _ in range(D)] for k in ks}
    for k in ks:
        for (i, j), v in mats[k].entries.items():
            if i != j:
                rows[k][i].append((j, v))
    eigen = []
    for a in range(D):
        alpha = tuples[a]
        w = {a: Fraction(1)}
        for c in order[order.index(a) + 1:]:
            k = next(k for k in ks if tuples[c][k - 1] != alpha[k - 1])
            acc = _combine((v, w[j]) for j, v in rows[k][c] if j in w)
            if acc.is_zero():
                continue
            x = -acc / (tuples[c][k - 1] - alpha[k - 1])
            if x.den.degree > 0 or x.num.degree > 0:
                return None
            w[c] = x.num.coeffs[0]
        for k in ks:
            lhs = {}
            for (i, j), v in mats[k].entries.items():
                if j in w:
                    lhs.setdefault(i, []).append((v, w[j]))
            for c in lhs.keys() | w.keys():
                terms = lhs.get(c, [])
                if c in w:
                    terms.append((-alpha[k - 1], w[c]))
                if not _combine(terms).is_zero():
                    return None
        lead = w[min(w)]
        vec = tuple(w.get(c, Fraction(0)) / lead for c in range(D))
        eigen.append((vec, {k: alpha[k - 1] for k in ks}))
    return eigen


def _combine(terms):
    """sum f * x over (RatFunc f, Fraction x) pairs."""
    acc = ZERO_RF
    for f, x in terms:
        term = f * x
        acc = term if acc.is_zero() else acc + term
    return acc


def kernel_spectrum(mats) -> SpectrumReport:
    """Spectrum of {k: d_k} by stacked kernels, for any family.

    Tame is certified constructively by the joint eigenspaces exhausting the
    module; NotTame by a sample point where some d_k has a non-squarefree
    minimal polynomial (commuting semisimple families specialize to
    diagonalizable matrices at every non-pole point).
    """
    size = len(mats)
    D = mats[1].nrows
    tuples = _diagonal_tuples(mats)
    classes = {}
    for a, tup in enumerate(tuples):
        classes.setdefault(tup, []).append(a)
    collisions = []
    for members in classes.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                collisions.append((members[i], members[j]))
    eigen = []
    total = 0
    for tup in sorted(classes, key=lambda t: min(classes[t])):
        space = None
        for k in range(1, size + 1):
            kern = _poly_kernel(mats[k], tup[k - 1])
            space = kern if space is None else intersect_spans(space, kern)
            if not space:
                break
        if size == 1 and space:
            space = rref(space)[0]  # echelon rows lead with 1, as intersect_spans' do
        total += len(space) if space else 0
        for vec in space or []:
            eigen.append((tuple(vec), {k: tup[k - 1] for k in range(1, size + 1)}))
    if total == D:
        return SpectrumReport(True, eigen, None, sorted(collisions))
    # find a witness: some d_k whose own eigenspaces do not fill the space,
    # exhibited at a sample point where its minimal polynomial is not squarefree
    for k in range(1, size + 1):
        diag = [t[k - 1] for t in tuples]
        alphas = sorted(set(diag), key=str)
        ktotal = sum(len(_poly_kernel(mats[k], alpha)) for alpha in alphas)
        if ktotal < D:
            for u0 in _witness_points(mats[k], alphas, 24):
                mp = _min_poly(mats[k].eval(u0))
                if poly_gcd(mp, mp.derivative()).degree >= 1:
                    return SpectrumReport(
                        False, [], (k, u0, poly_str(mp)), sorted(collisions)
                    )
    raise InternalInvariantViolation(
        "joint eigenspaces deficient but no non-semisimple witness found"
    )


def _witness_points(mat: RFMatrix, alphas, count: int):
    """Sample points where all distinct eigenvalue functions stay distinct."""
    out = []
    tried = 0
    for u0 in sample_points():
        tried += 1
        if tried > 100 + 20 * count:
            break
        try:
            vals = [a(u0) for a in alphas]
            mat.eval(u0)
        except PoleError:
            continue
        if len(set(vals)) == len(alphas):
            out.append(u0)
            if len(out) >= count:
                break
    if not out:
        raise InternalInvariantViolation("no separating witness point found")
    return out


# ---------------------------------------------------------------------------
# the lowering-chain eigenvectors (xi)


@dataclass(frozen=True)
class XiStep:
    """One lowering: y_{w}(point) decrementing entry (row, col) of factor s."""

    factor: int
    row: int
    col: int
    w: int
    point: Fraction


def xi_plan(factors, targets):
    """The ordered lowering plan from the top multi-pattern down to `targets`.

    Steps are listed in application order (first applied first). Evaluation
    points follow the eigenvalue-recursion cases: -(l_Omega(row,col)+r+h) +
    gamma_w, plus 1 for even columns in odd rows; blocks are processed right to
    left as displayed, levels sweep each column bottom-up.
    """
    factors = list(factors)
    targets = list(targets)
    if len(factors) != len(targets):
        raise ValueError("one target pattern per factor required")
    m = factors[0].patterns[0].shape.m - factors[0].r
    n = factors[0].patterns[0].shape.n
    for f, t in zip(factors, targets):
        if t.shape != f.patterns[0].shape:
            raise ValueError("target pattern has the wrong ambient shape")
    tops = [top_pattern(f.patterns[0].shape, f.lam, f.mu) for f in factors]
    max_r = max(f.r for f in factors)
    # application order: blocks +(m+n-1), ..., +1, then -r, ..., -1
    blocks = [("+", i) for i in range(m + n - 1, 0, -1)]
    blocks += [("-", i) for i in range(max_r, 0, -1)]
    steps = []
    for kind, i in blocks:
        for s in range(len(factors) - 1, -1, -1):
            f = factors[s]
            r = f.r
            if kind == "-" and i > r:
                continue
            col = i if kind == "-" else i + r
            amb_size = m + r + n
            if col > amb_size - 1:
                continue
            rows = list(range(max(col, r + 1), amb_size))
            need = {}
            for rho in rows:
                need[rho] = tops[s].entry(rho, col) - targets[s].entry(rho, col)
                if need[rho] < 0:
                    raise InternalInvariantViolation("target exceeds the top pattern")
            max_need = max(need.values(), default=0)
            for level in range(max_need):
                for rho in rows:
                    if need[rho] > level:
                        steps.append(_xi_step(f, s, tops[s], rho, col, level, m))
    return steps


def _xi_step(f: Factor, s: int, top: GTPattern, rho: int, col: int, level: int, m: int):
    r = f.r
    m_amb = top.shape.m
    value_before = top.entry(rho, col) - level
    w = rho - r
    if col <= m_amb:
        l_before = Fraction(value_before - col + 1)
    else:
        l_before = Fraction(-value_before + col - 2 * m_amb)
    point = -(l_before + r + f.h) + gamma(m, w)
    if rho > m_amb and col <= m_amb:
        point += 1
    return XiStep(s, rho, col, w, point)


def _apply_series_at(mat: RFMatrix, vec, point, what: str):
    """(mat * vec)(point) evaluated symbolically first, so that entry poles
    outside the support of vec cannot produce spurious PoleHit errors."""
    rows = {}
    for (i, j), v in mat.entries.items():
        x = vec[j]
        if x:
            cur = rows.get(i)
            term = v * x
            rows[i] = term if cur is None else cur + term
    out = [Fraction(0)] * mat.nrows
    for i, f in rows.items():
        try:
            out[i] = f(point)
        except PoleError as exc:
            raise PoleHitError(f"{what} hits a pole at {point}") from exc
    return out


def build_xi(ym: YangianModule, targets):
    """The eigenvector for the given multi-pattern, as exact coordinates."""
    plan = xi_plan(ym.factors, targets)
    vec = _xi_start(ym)
    series = gt_series(ym)
    for step in plan:
        vec = _apply_series_at(series[("y", step.w)], vec, step.point, f"y_{step.w}")
    return vec


def _xi_start(ym: YangianModule):
    """Coordinates of the tensor of per-factor top patterns."""
    pos = []
    for f in ym.factors:
        top = top_pattern(f.patterns[0].shape, f.lam, f.mu)
        pos.append(f.patterns.index(top))
    idx = ym.labels.index(tuple(pos))
    vec = [Fraction(0)] * ym.dim
    vec[idx] = Fraction(1)
    return vec


def leftmost_factor(ym: YangianModule, targets):
    """(w, L) of the leftmost lowering factor y_w(-L + gamma_w) of the plan."""
    plan = xi_plan(ym.factors, targets)
    if not plan:
        raise ValueError("the plan has no lowering factors")
    last = plan[-1]
    m = ym.shape.m
    return last.w, gamma(m, last.w) - last.point


def raise_xi(ym: YangianModule, xi_vec, w: int, L):
    """Apply x_w(-L + (-1)^{bar w} + gamma_w) to xi (Theorem driving the
    raising roundtrip); caller compares against the shorter plan's vector."""
    m = ym.shape.m
    L = rat(L)
    sign = Fraction(-1 if ym.shape.parity(w) else 1)
    point = -L + sign + gamma(m, w)
    series = gt_series(ym)
    return _apply_series_at(series[("x", w)], xi_vec, point, f"x_{w}")


def eta_vector(ym: YangianModule, targets):
    """The plan-minus-last-step vector (the eta of the raising identity)."""
    plan = xi_plan(ym.factors, targets)
    if not plan:
        raise ValueError("the plan has no lowering factors")
    vec = _xi_start(ym)
    series = gt_series(ym)
    for step in plan[:-1]:
        vec = _apply_series_at(series[("y", step.w)], vec, step.point, f"y_{step.w}")
    return vec


# ---------------------------------------------------------------------------
# simplicity


def is_simple(ym: YangianModule):
    """Cyclicity probe: every probe vector must generate the whole module
    under the t-coefficient matrices. Returns (verdict, certificate)."""
    from .glmod import smat_apply
    from .yangian import coefficient_matrices

    D = ym.dim
    gens = coefficient_matrices(ym)
    try:
        rep = gt_spectrum(ym)
        if rep.tame and rep.simple_spectrum:
            probes = [list(vec) for vec, _ in rep.eigen]
        else:
            probes = [[Fraction(int(i == j)) for j in range(D)] for i in range(D)]
    except InternalInvariantViolation:
        probes = [[Fraction(int(i == j)) for j in range(D)] for i in range(D)]
    for probe in probes:
        span = [probe]
        base = rank(span)
        changed = True
        while changed and base < D:
            changed = False
            new = []
            for g in gens:
                for v in list(span):
                    w = smat_apply(g, v)
                    if any(w):
                        new.append(w)
            R, piv = rref(span + new)
            if len(piv) > base:
                base = len(piv)
                span = R[:base]
                changed = True
        if base < D:
            return False, {"probe": probe, "invariant_subspace": span}
    return True, {"probes": len(probes)}


def spectrum_to_json(report: SpectrumReport) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))
