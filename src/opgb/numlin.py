"""Dense matrices over exact or float scalars, and the factorizations on them.

The Matrix class is a thin wrapper over a list of row lists. It exists so
that the same Gaussian elimination code runs on Fractions and on floats,
with the zero test switched by scalar type. Nothing here is tuned for
speed; truncation sizes in this package stay small (tens, not thousands).

The central routine is ldu_factorize: G = L D U with unit triangular L, U,
which exists iff all leading principal minors of G are nonzero
(quasi-definiteness). With unit_lower_inverse it is the LDU route of
biorth.build_families, taken by non-Hankel and float Gram matrices; exact
Hankel blocks take the O(n^2) recurrence route in biorth instead, and there
ldu_factorize + unit_lower_inverse serve as its test oracle. No spectral
matrix needs an inverse. Schur complements (the paper's quasi-determinants)
and the characteristic polynomial, by Faddeev-LeVerrier and so independent
of how J was built, round out the toolkit; shift and derivative operators
live here too because they are just banded matrices.
"""

from __future__ import annotations

from .errors import NotQuasiDefinite, SingularBlock, SingularTruncation
from .poly import exact_div
from .scalars import canon, is_zero


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

    def __add__(self, other):
        m, n = self.shape
        return Matrix([[self.rows[i][j] + other.rows[i][j] for j in range(n)] for i in range(m)])

    def __sub__(self, other):
        m, n = self.shape
        return Matrix([[self.rows[i][j] - other.rows[i][j] for j in range(n)] for i in range(m)])

    def scale(self, c) -> "Matrix":
        return Matrix([[c * a for a in row] for row in self.rows])

    def __matmul__(self, other):
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = Matrix.zeros(m, n)
        for i in range(m):
            row = self.rows[i]
            orow = out.rows[i]
            for t in range(k):
                a = row[t]
                if a == 0:
                    continue
                brow = other.rows[t]
                for j in range(n):
                    orow[j] = orow[j] + a * brow[j]
        return out

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({self.rows!r})"


def shift_matrix(n) -> Matrix:
    """Lambda: the shift, ones on the superdiagonal. Lambda chi(x) = x chi(x) up to the boundary row."""
    out = Matrix.zeros(n)
    for i in range(n - 1):
        out.rows[i][i + 1] = 1
    return out


def derivative_matrix(n) -> Matrix:
    """D with D chi(x) = chi'(x): entry (i, i-1) equal to i."""
    out = Matrix.zeros(n)
    for i in range(1, n):
        out.rows[i][i - 1] = i
    return out


def _eliminate(a, rhs):
    """In-place Gaussian elimination with row swaps on [a | rhs]; returns swap parity.

    Pivot choice: first nonzero entry for exact rows, largest magnitude for
    float rows. Raises SingularTruncation if a column has no usable pivot.
    """
    n = len(a)
    sign = 1
    for k in range(n):
        piv_row = None
        if any(isinstance(a[r][k], float) for r in range(k, n)):
            best = None
            for r in range(k, n):
                mag = abs(float(a[r][k]))
                if not is_zero(a[r][k]) and (best is None or mag > best):
                    best, piv_row = mag, r
        else:
            for r in range(k, n):
                if not is_zero(a[r][k]):
                    piv_row = r
                    break
        if piv_row is None:
            raise SingularTruncation(f"singular at column {k}")
        if piv_row != k:
            a[k], a[piv_row] = a[piv_row], a[k]
            rhs[k], rhs[piv_row] = rhs[piv_row], rhs[k]
            sign = -sign
        piv = a[k][k]
        for r in range(k + 1, n):
            if a[r][k] == 0:
                continue
            m = exact_div(a[r][k], piv)
            a[r][k] = 0
            for j in range(k + 1, n):
                a[r][j] = a[r][j] - m * a[k][j]
            for j in range(len(rhs[r])):
                rhs[r][j] = rhs[r][j] - m * rhs[k][j]
    return sign


def solve(a: Matrix, b) -> Matrix:
    """Solve a X = B for X; B a Matrix. Raises SingularTruncation."""
    n, n2 = a.shape
    if n != n2:
        raise ValueError("solve needs a square matrix")
    aw = [list(r) for r in a.rows]
    bw = [list(r) for r in b.rows]
    _eliminate(aw, bw)
    ncols = len(bw[0])
    x = [[0] * ncols for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(ncols):
            acc = bw[i][j]
            for t in range(i + 1, n):
                acc = acc - aw[i][t] * x[t][j]
            x[i][j] = exact_div(acc, aw[i][i])
    return Matrix(x)


def solve_vector(a: Matrix, v):
    return [row[0] for row in solve(a, Matrix([[c] for c in v])).rows]


def inverse(a: Matrix) -> Matrix:
    return solve(a, Matrix.identity(a.shape[0]))


def det(a: Matrix):
    n, n2 = a.shape
    if n != n2:
        raise ValueError("det needs a square matrix")
    if n == 0:
        return 1
    aw = [list(r) for r in a.rows]
    rhs = [[] for _ in range(n)]
    try:
        sign = _eliminate(aw, rhs)
    except SingularTruncation:
        return 0.0 if any(isinstance(c, float) for r in a.rows for c in r) else 0
    out = sign
    for i in range(n):
        out = out * aw[i][i]
    return out


def ldu_factorize(g: Matrix, allow_final_zero: bool = False):
    """LDU factorization of the square n x n matrix g.

    Returns (l, d, u): unit lower triangular l, the list d of pivots, unit
    upper triangular u, with g = l diag(d) u. Exists iff the first n
    leading principal minors are nonzero; d[k] equals the nested Schur
    complement det g^[k+1] / det g^[k]. The first pivot index k that
    vanishes (or, for floats, falls below the pivot tolerance) raises
    NotQuasiDefinite(k). No pivoting: quasi-definiteness rules it out.

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
        if is_zero(piv):
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
    d = [w[k][k] for k in range(n)]
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
    """M / A for the block split at p: D - C A^{-1} B with A the leading p x p block."""
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
    return d - c @ ainv_b


def polynomial_of_operator(coeffs, m: Matrix) -> Matrix:
    """p(M) by Horner for an ascending coefficient list p."""
    n = m.shape[0]
    out = Matrix.zeros(n)
    for c in reversed(coeffs):
        out = out @ m
        for i in range(n):
            out.rows[i][i] = out.rows[i][i] + c
    return out


def char_poly(m: Matrix):
    """Characteristic polynomial det(x I - M), monic, ascending coefficients.

    Faddeev-LeVerrier recursion, division-light and exact on exact input:
    M_1 = M, c_{n-k} = -tr(M_k)/k, M_{k+1} = M (M_k + c_{n-k} I).
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
                if not is_zero(g.rows[i][j] - g.rows[i + 1][j - 1]):
                    return False
    return True


def hankel_moments(g: Matrix):
    """m_0 .. m_{2n-2} of an n x n Hankel matrix: its first row, then its last column."""
    if not g.rows:
        return []
    return g.rows[0] + [row[-1] for row in g.rows[1:]]
