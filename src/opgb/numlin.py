"""Dense matrices over exact scalars, and the factorizations on them.

The Matrix class is a thin wrapper over a list of row lists of ints and
Fractions (scalars.py), so every zero test here is exact. Truncation sizes
in this package stay small (tens, not thousands).

Every dense exact step runs one fraction-free sweep (Bareiss 1968) on
integer rows: solve and solve_vector, det, and gauss_borel, the
factorization route of biorth.build_families for non-Hankel Gram matrices.
Entries go through canon on the way in and are scaled to integers, so each
step is an integer multiply and an exact division by the previous pivot,
with no gcd; the pivots are the leading minors, so the same sweep proves
quasi-definiteness. ldu_factorize is the paper's Gauss-Borel factorization
G = L D U in Fractions, kept as the labelled oracle of gauss_borel and of
the recurrence route that Hankel blocks take in biorth; unit_lower_inverse
serves the connectors and the test oracles. No spectral matrix needs an
inverse. Schur complements (the paper's quasi-determinants) and the
characteristic polynomial round out the toolkit: char_poly runs the
Hessenberg determinant recurrence on lower Hessenberg input such as every
spectral matrix J, and faddeev_leverrier is the dense route for any other
input and the labelled oracle that checks of char_poly(J_k) = P_k call,
since it is independent of how J was built.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotQuasiDefinite, SingularBlock, SingularTruncation
from .poly import exact_div
from .scalars import canon


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]

    @classmethod
    def zeros(cls, m, n=None):
        n = m if n is None else n
        return cls([[0] * n for _ in range(m)])

    @classmethod
    def identity(cls, n):
        out = cls.zeros(n)
        for i in range(n):
            out.rows[i][i] = 1
        return out

    @classmethod
    def from_function(cls, m, n, f):
        return cls([[f(i, j) for j in range(n)] for i in range(m)])

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def copy(self) -> "Matrix":
        return Matrix(self.rows)

    def canon(self) -> "Matrix":
        """A copy with every entry in canonical form (scalars.canon)."""
        return Matrix([[canon(v) for v in row] for row in self.rows])

    def leading(self, l) -> "Matrix":
        return Matrix([row[:l] for row in self.rows[:l]])

    def transpose(self) -> "Matrix":
        m, n = self.shape
        return Matrix([[self.rows[i][j] for i in range(m)] for j in range(n)])

    def __sub__(self, other):
        m, n = self.shape
        return Matrix([[self.rows[i][j] - other.rows[i][j] for j in range(n)] for i in range(m)])

    def __matmul__(self, other):
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        # The nonzero (j, b) of each row of other, collected once: a zero product is never formed.
        nonzero = [[(j, b) for j, b in enumerate(brow) if b != 0] for brow in other.rows]
        out = Matrix.zeros(m, n)
        for row, orow in zip(self.rows, out.rows):
            for a, pairs in zip(row, nonzero):
                if a != 0:
                    for j, b in pairs:
                        orow[j] = orow[j] + a * b
        return out

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({self.rows!r})"


def _integers(values):
    """(ints, s): the exact values times s, the lcm of their denominators."""
    vs = [canon(v) for v in values]
    s = math.lcm(*(v.denominator for v in vs))
    return [v.numerator * (s // v.denominator) for v in vs], s


def _sweep(rows, n, swap):
    """Fraction-free forward elimination (Bareiss 1968) on integer rows [A | B], in place.

    A is the leading n x n block. Step k replaces every row i > k past column k by
    (p_k row_i - a_ik row_k) / p_{k-1}, with p_k = rows[k][k] and p_{-1} = 1.
    Each division is exact: p_k is the leading minor of order k + 1 of the
    (row-swapped) A, and each entry is a minor of [A | B]. A zero pivot
    takes the first row below with a nonzero entry in its column when swap
    is set, and stops the sweep otherwise.

    Returns (r, sign): the number r of steps taken, n unless a column had no
    pivot, and the sign of the row permutation.
    """
    sign, prev = 1, 1
    for k in range(n):
        if rows[k][k] == 0:
            below = next((i for i in range(k + 1, n) if rows[i][k] != 0), None) if swap else None
            if below is None:
                return k, sign
            rows[k], rows[below] = rows[below], rows[k]
            sign = -sign
        p, tail = rows[k][k], rows[k][k + 1:]
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return n, sign


def solve(a: Matrix, b) -> Matrix:
    """Solve a X = B for X; B a Matrix. Raises SingularTruncation; 0 x 0 gives the empty X.

    Each row of [A | B] is scaled to integers and swept with row swaps. With
    d the last pivot, plus or minus the determinant of the scaled A, d X is
    integral: an exact integer back-substitution finds it, and each entry is
    divided by d once.
    """
    n, n2 = a.shape
    if n != n2:
        raise ValueError("solve needs a square matrix")
    rows = [_integers(ra + rb)[0] for ra, rb in zip(a.rows, b.rows)]
    r, _ = _sweep(rows, n, swap=True)
    if r < n:
        raise SingularTruncation(f"singular at column {r}")
    d = rows[n - 1][n - 1] if n else 1
    dx = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        dx[i] = [
            (d * c - sum(row[t] * dx[t][j] for t in range(i + 1, n))) // row[i]
            for j, c in enumerate(row[n:])
        ]
    return Matrix([[canon(Fraction(v, d)) for v in xrow] for xrow in dx])


def solve_vector(a: Matrix, v):
    return [row[0] for row in solve(a, Matrix([[c] for c in v])).rows]


def det(a: Matrix):
    """det a: the signed last pivot of the row-swapped sweep, over the product of the row scales."""
    n, n2 = a.shape
    if n != n2:
        raise ValueError("det needs a square matrix")
    if n == 0:
        return 1
    rows, scales = zip(*(_integers(row) for row in a.rows))
    rows = list(rows)
    r, sign = _sweep(rows, n, swap=True)
    if r < n:
        return 0
    return canon(Fraction(sign * rows[n - 1][n - 1], math.prod(scales)))


def gauss_borel(g: Matrix, allow_final_zero: bool = False):
    """(S1, S2, h) of the Gauss-Borel factorization g = S1^{-1} diag(h) S2^{-T}.

    In the terms of ldu_factorize, g = L diag(d) U, S1 = L^{-1}, S2 = U^{-T}
    and h = d, each entry canonical. Fraction free: with D the lcm of the
    denominators of g, the sweep runs without row swaps on [D g | I] and on
    [D g^T | I], whose right blocks are lower triangular. Its pivots are the
    leading minors d_k of D g, so h_k = d_k / (d_{k-1} D), and row k of the
    right block is d_{k-1} times row k of S1 (of S2). The first k with
    d_k = 0 raises NotQuasiDefinite(k); allow_final_zero tolerates
    d_{n-1} = 0, which divides nothing. ldu_factorize followed by two
    unit_lower_inverse calls is the labelled oracle of this route.
    """
    n = g.shape[0]
    flat, scale = _integers(v for row in g.rows for v in row)
    ints = [flat[i * n:(i + 1) * n] for i in range(n)]
    out = []
    for m in (ints, [list(col) for col in zip(*ints)]):
        rows = [row + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(m)]
        r, _ = _sweep(rows, n, swap=False)
        if r < n and not (allow_final_zero and r == n - 1):
            raise NotQuasiDefinite(r)
        minors = [1] + [rows[k][k] for k in range(n)]
        out.append(Matrix([
            [canon(Fraction(v, minors[i])) for v in row[n:]] for i, row in enumerate(rows)
        ]))
    h = tuple(canon(Fraction(minors[k + 1], minors[k] * scale)) for k in range(n))
    return out[0], out[1], h


def ldu_factorize(g: Matrix, allow_final_zero: bool = False):
    """LDU factorization of the square n x n matrix g, in Fractions.

    The paper's Gauss-Borel factorization step by step, kept as the labelled
    oracle of gauss_borel and of biorth's recurrence route. Returns
    (l, d, u): unit lower triangular l, the list d of pivots, unit upper
    triangular u, with g = l diag(d) u. Exists iff the first n
    leading principal minors are nonzero; d[k] equals the nested Schur
    complement det g^[k+1] / det g^[k]. The first pivot index k that
    vanishes raises NotQuasiDefinite(k). No pivoting: quasi-definiteness
    rules it out.

    allow_final_zero tolerates a vanishing last pivot d[n-1], which is never
    used as a divisor: the elimination still determines every row of l and
    all of u above the last row. Rank-(n-1) moment matrices (for example a
    measure with n-1 atoms) land exactly in this case.
    """
    n = g.shape[0]
    w = [list(row) for row in g.rows]
    l = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = w[k][k]
        if piv == 0:
            if not (allow_final_zero and k == n - 1):
                raise NotQuasiDefinite(k)
            w[k][k] = 0
            continue
        for i in range(k + 1, n):
            if w[i][k] == 0:
                continue
            m = exact_div(w[i][k], piv)
            l[i][k] = m
            for j in range(k, n):
                w[i][j] = w[i][j] - m * w[k][j]
    d = [canon(w[k][k]) for k in range(n)]
    u = [
        [
            (exact_div(w[k][j], d[k]) if d[k] != 0 else 0) if j > k else (1 if j == k else 0)
            for j in range(n)
        ]
        for k in range(n)
    ]
    return Matrix(l), d, Matrix(u)


def unit_lower_inverse(lo: Matrix) -> Matrix:
    """Inverse of a unit lower triangular matrix by a forward sweep."""
    l = lo.rows
    n = len(l)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            acc = 0
            for t in range(j, i):
                acc = acc + l[i][t] * inv[t][j]
            inv[i][j] = -acc
    return Matrix(inv)


def schur_complement(m: Matrix, p: int) -> Matrix:
    """M / A for the block split at p: D - C A^{-1} B with A the leading p x p block.

    Entries are taken exactly (scalars.canon).
    """
    m = m.canon()
    size, size2 = m.shape
    if size != size2 or not 0 < p < size:
        raise ValueError("split index out of range")
    a = m.leading(p)
    b = Matrix([row[p:] for row in m.rows[:p]])
    c = Matrix([row[:p] for row in m.rows[p:]])
    d = Matrix([row[p:] for row in m.rows[p:]])
    try:
        ainv_b = solve(a, b)
    except SingularTruncation as exc:
        raise SingularBlock(f"leading {p} x {p} block is singular") from exc
    return (d - c @ ainv_b).canon()


def char_poly(m: Matrix):
    """Characteristic polynomial det(x I - M), monic, ascending coefficients.

    A lower Hessenberg M (every entry above the superdiagonal 0, as in each
    spectral matrix J) takes the determinant recurrence (Wilkinson 1965,
    sec. 7.11), O(n^3) scalar operations and O(n^2) on a tridiagonal M:
    p_0 = 1 and
    p_{k+1} = (x - M_kk) p_k - sum_{i<k} M_ki (prod_{l=i}^{k-1} M_{l,l+1}) p_i.
    Any other M takes faddeev_leverrier.
    """
    rows = m.rows
    n = len(rows)
    if any(rows[i][j] != 0 for i in range(n) for j in range(i + 2, n)):
        return faddeev_leverrier(m)
    ps = [[1]]
    for k in range(n):
        row = rows[k]
        nxt = [0] + ps[k]
        for t, c in enumerate(ps[k]):
            nxt[t] = nxt[t] - row[k] * c
        prod = 1
        for i in range(k - 1, -1, -1):
            prod = prod * rows[i][i + 1]
            f = row[i] * prod
            if f != 0:
                for t, c in enumerate(ps[i]):
                    nxt[t] = nxt[t] - f * c
        ps.append(nxt)
    return [canon(c) for c in ps[n]]


def faddeev_leverrier(m: Matrix):
    """det(x I - M) for any square M, by k dense products: O(n^4).

    The dense route of char_poly, and the labelled oracle that checks of
    char_poly(J_k) = P_k call, since it does not restate how J was built.
    Division-light and exact on exact input: M_1 = M,
    c_{n-k} = -tr(M_k)/k, M_{k+1} = M (M_k + c_{n-k} I).
    """
    n = m.shape[0]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = m.copy()
    for k in range(1, n + 1):
        tr = sum(mk.rows[i][i] for i in range(n))
        c = exact_div(-tr, k)
        coeffs[n - k] = c
        if k < n:
            for i in range(n):
                mk.rows[i][i] = mk.rows[i][i] + c
            mk = m @ mk
    return coeffs


def is_hankel(g: Matrix) -> bool:
    """True when entries depend only on i + j (a moment matrix)."""
    m, n = g.shape
    for i in range(m):
        for j in range(n):
            if i + 1 < m and j - 1 >= 0:
                if g.rows[i][j] != g.rows[i + 1][j - 1]:
                    return False
    return True


def hankel_moments(g: Matrix):
    """m_0 .. m_{2n-2} of an n x n Hankel matrix: its first row, then its last column."""
    if not g.rows:
        return []
    return g.rows[0] + [row[-1] for row in g.rows[1:]]
