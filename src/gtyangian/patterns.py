"""Covariant weights and Gelfand-Tsetlin patterns for gl(m|n).

A pattern is a triangular integer array rows[0..m+n-1], row k (1-indexed it
has k entries) stored at rows[k-1], top row rows[m+n-1] equal to the weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import IndexOutOfTriangleError, NotAdmissibleError, NotCovariantError

INVALID = object()  # pattern_shift sentinel: the shifted array left the pattern set


@dataclass(frozen=True)
class SuperShape:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError("need m, n >= 0 and m + n >= 1")

    @property
    def size(self) -> int:
        return self.m + self.n

    def parity(self, i: int) -> int:
        """Parity of index i (1-based): 0 if i <= m else 1."""
        if not 1 <= i <= self.size:
            raise IndexOutOfTriangleError(f"index {i} outside 1..{self.size}")
        return 0 if i <= self.m else 1


def parse_weight(text: str, shape: SuperShape | None = None):
    """Parse 'a,b|c,d' into an integer tuple; the bar splits even/odd blocks."""
    text = text.strip()
    if "|" in text:
        even, odd = text.split("|", 1)
        ev = [int(x) for x in even.split(",") if x.strip() != ""]
        od = [int(x) for x in odd.split(",") if x.strip() != ""]
        if shape is not None and (len(ev), len(od)) != (shape.m, shape.n):
            raise NotCovariantError(
                f"weight '{text}' has block sizes {len(ev)}|{len(od)}, "
                f"expected {shape.m}|{shape.n}"
            )
        return tuple(ev + od)
    entries = tuple(int(x) for x in text.split(",") if x.strip() != "")
    if shape is not None and len(entries) != shape.size:
        raise NotCovariantError(f"weight '{text}' has {len(entries)} entries, expected {shape.size}")
    return entries


def format_weight(shape: SuperShape, entries) -> str:
    ev = ",".join(str(x) for x in entries[: shape.m])
    od = ",".join(str(x) for x in entries[shape.m :])
    return f"{ev}|{od}"


def is_covariant(shape: SuperShape, entries) -> bool:
    """Nonnegative integers, two descending chains, hook condition."""
    m, n = shape.m, shape.n
    if len(entries) != m + n:
        return False
    if any(not isinstance(x, int) or x < 0 for x in entries):
        return False
    if any(entries[i] < entries[i + 1] for i in range(m - 1)):
        return False
    if any(entries[m + j] < entries[m + j + 1] for j in range(n - 1)):
        return False
    if n > 0:
        positive_odd = sum(1 for j in range(n) if entries[m + j] > 0)
        bound = entries[m - 1] if m >= 1 else 0
        if positive_odd > bound:
            return False
    return True


class GTPattern:
    """Immutable triangular array with its ambient shape."""

    __slots__ = ("shape", "rows")

    def __init__(self, shape: SuperShape, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if len(rows) != shape.size or any(len(rows[k]) != k + 1 for k in range(len(rows))):
            raise ValueError("rows must form a triangle of height m+n")
        self.shape = shape
        self.rows = rows

    def __eq__(self, other):
        return isinstance(other, GTPattern) and self.shape == other.shape and self.rows == other.rows

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return f"GTPattern({self.rows})"

    def entry(self, k: int, i: int) -> int:
        """lambda_{ki}, 1-based, 1 <= i <= k <= m+n."""
        if not 1 <= i <= k <= self.shape.size:
            raise IndexOutOfTriangleError(f"(k, i) = ({k}, {i}) outside the triangle")
        return self.rows[k - 1][i - 1]

    def top(self):
        return self.rows[-1]

    def theta(self, k: int, i: int) -> int:
        """theta_{k,i} = lambda_{k+1,i} - lambda_{k,i} for i <= m <= k."""
        return self.entry(k + 1, i) - self.entry(k, i)

    def is_valid(self) -> bool:
        return _check_rows(self.shape, self.rows)

    def l_coord(self, k: int, i: int) -> Fraction:
        """l_{ki} = lambda_{ki} - i + 1 (i <= m) or -lambda_{ki} + i - 2m (i > m)."""
        m = self.shape.m
        v = self.entry(k, i)
        if i <= m:
            return Fraction(v - i + 1)
        return Fraction(-v + i - 2 * m)

    def zz_degree(self):
        """(sum of rows 1..m, sum of rows m+1..m+n)."""
        m = self.shape.m
        even = sum(sum(self.rows[k]) for k in range(min(m, len(self.rows))))
        odd = sum(sum(self.rows[k]) for k in range(m, len(self.rows)))
        return (even, odd)

    def parity(self) -> int:
        """Z2-parity: number of odd lowering steps = |even part| - sum(row m), mod 2."""
        m, n = self.shape.m, self.shape.n
        if n == 0 or m == 0:
            return 0
        top_even = sum(self.top()[:m])
        row_m = sum(self.rows[m - 1])
        return (top_even - row_m) % 2

    def to_json(self):
        """Row arrays, top row first."""
        return [list(row) for row in reversed(self.rows)]

    @classmethod
    def from_json(cls, shape: SuperShape, data) -> "GTPattern":
        return cls(shape, tuple(reversed([tuple(r) for r in data])))


def zz_key(deg):
    """Sort key realizing the order (i,j) < (k,l) iff i<k or (i=k and j>l)."""
    return (deg[0], -deg[1])


def compare_zz_degree(d1, d2) -> int:
    """-1, 0, or 1; the degree order is total on Z^2."""
    k1, k2 = zz_key(d1), zz_key(d2)
    return -1 if k1 < k2 else (1 if k1 > k2 else 0)


def _check_rows(shape: SuperShape, rows) -> bool:
    """The six pattern conditions of the construction, minus the top-row pin."""
    m, n = shape.m, shape.n
    size = m + n

    def lam(k, i):
        return rows[k - 1][i - 1]

    # (2) theta in {0,1}
    for k in range(m + 1, size + 1):
        for i in range(1, m + 1):
            if lam(k, i) - lam(k - 1, i) not in (0, 1):
                return False
    # (3) within-row descent of the even block for rows m+1..m+n-1
    for k in range(m + 1, size):
        for i in range(1, m):
            if lam(k, i) < lam(k, i + 1):
                return False
    # (4) interlacing inside the even rows and inside the odd columns
    for k in range(1, size):
        for i in range(1, k + 1):
            even_range = 1 <= i <= k <= m - 1
            odd_range = m + 1 <= i <= k <= size - 1
            if even_range or odd_range:
                if lam(k + 1, i) < lam(k, i) or lam(k, i) < lam(k + 1, i + 1):
                    return False
    # (5) hook condition per odd row
    if m >= 1:
        for k in range(m + 1, size + 1):
            positive = sum(1 for i in range(m + 1, k + 1) if lam(k, i) > 0)
            if lam(k, m) < positive:
                return False
    # (6) lambda_{m+1,m} = 0 forces theta_{mm} = 0
    if m >= 1 and n >= 1:
        if lam(m + 1, m) == 0 and lam(m + 1, m) - lam(m, m) != 0:
            return False
    return True


def _pattern_sort_key(p: GTPattern):
    """Lexicographic on rows read bottom-up, left-to-right."""
    return tuple(x for row in p.rows for x in row)


def enumerate_patterns(shape: SuperShape, weight):
    """All Gelfand-Tsetlin patterns with the given covariant top row.

    Deterministic order: lexicographic on rows read bottom-up.
    """
    if not is_covariant(shape, tuple(weight)):
        raise NotCovariantError(f"{tuple(weight)} is not covariant for gl({shape.m}|{shape.n})")
    m, size = shape.m, shape.size
    weight = tuple(int(x) for x in weight)

    partials = [(weight,)]  # rows k..m+n, lowest first
    for k in range(size - 1, 0, -1):
        new_partials = []
        for rows_above in partials:
            upper = rows_above[0]  # row k+1
            ranges = []
            for i in range(1, k + 1):
                if i <= m and k >= m:
                    lo, hi = upper[i - 1] - 1, upper[i - 1]  # theta move
                else:
                    lo, hi = upper[i], upper[i - 1]  # interlacing
                ranges.append(range(max(lo, 0), hi + 1))
            for cand in product(*ranges):
                new_partials.append((cand,) + rows_above)
        partials = new_partials

    out = []
    for rows in partials:
        if _check_rows(shape, rows):
            out.append(GTPattern(shape, rows))
    out.sort(key=_pattern_sort_key)
    return out


def check_admissible(shape: SuperShape, weight, mu) -> None:
    """(admi): lambda_{m+i} <= mu_i <= lambda_i, m the small even rank (ambient m - r)."""
    r = len(mu)
    if r > shape.m:
        raise NotAdmissibleError(f"mu has {r} entries but the even block has only {shape.m}")
    m_small = shape.m - r
    for i in range(1, r + 1):
        lo, hi = weight[m_small + i - 1], weight[i - 1]
        if not lo <= mu[i - 1] <= hi:
            raise NotAdmissibleError(f"mu_{i} = {mu[i - 1]} outside [{lo}, {hi}]")


def enumerate_skew_patterns(shape: SuperShape, weight, mu):
    """Patterns of the ambient gl(m|n) = gl((m-r)+r|n) whose rows 1..r equal mu."""
    mu = tuple(int(x) for x in mu)
    r = len(mu)
    check_admissible(shape, tuple(weight), mu)
    frozen = tuple(mu[:k] for k in range(1, r + 1))
    return [p for p in enumerate_patterns(shape, weight) if p.rows[:r] == frozen]


def pattern_shift(p: GTPattern, k: int, i: int, sign: int):
    """Replace lambda_{ki} by lambda_{ki} +/- 1; INVALID if the result leaves the set."""
    size = p.shape.size
    if k >= size:
        raise IndexOutOfTriangleError("the top row is pinned to the weight")
    if not 1 <= i <= k:
        raise IndexOutOfTriangleError(f"(k, i) = ({k}, {i}) outside the triangle")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    rows = [list(row) for row in p.rows]
    rows[k - 1][i - 1] += sign
    cand = GTPattern(p.shape, rows)
    return cand if cand.is_valid() else INVALID


def top_pattern(shape: SuperShape, weight, mu=()):
    """The degree-maximal pattern of the skew set (the kappa array).

    kappa_{kl} = mu_l for k < r; min(lambda_l, mu_{l-k+r}) for r <= k <= m' and
    l > k - r; lambda_l otherwise, where m' is the even size of the shape.
    """
    weight = tuple(int(x) for x in weight)
    mu = tuple(int(x) for x in mu)
    r = len(mu)
    if r:
        check_admissible(shape, weight, mu)
    m_amb = shape.m
    rows = []
    for k in range(1, shape.size + 1):
        row = []
        for l in range(1, k + 1):
            if k < r:
                row.append(mu[l - 1])
            elif r <= k <= m_amb and l > k - r:
                row.append(min(weight[l - 1], mu[l - k + r - 1]))
            else:
                row.append(weight[l - 1])
        rows.append(tuple(row))
    p = GTPattern(shape, rows)
    if not p.is_valid() or p.top() != weight:
        raise NotAdmissibleError("kappa array is not a valid pattern for this (weight, mu)")
    return p
