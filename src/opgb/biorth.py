"""Biorthogonal polynomial families from the Gauss-Borel factorization.

Factor a quasi-definite Gram matrix as G = L D U. The rows of S1 = L^{-1}
are the coefficients of the monic polynomials P_{1,k}(x), the rows of
S2 = U^{-T} those of P_{2,k}(y), and the pivots H_k = D_k are the pairing
values <P_{1,k}, P_{2,k}>; the two sequences are biorthogonal by
construction. When G is Hankel the two families coincide and everything
reduces to classical orthogonal polynomials.

build_families takes one of two routes. An exact Hankel block goes through
the recurrence route: the Chebyshev algorithm reads H_k, a_k and b_k off
the moments and the three-term recurrence builds S1 = S2, in O(n^2) scalar
operations. Every other block (non-Hankel, or any float entry) goes through
the LDU route, numlin.ldu_factorize followed by two unit_lower_inverse
calls, in O(n^3). Both hand out canonical scalars (scalars.canon) and give
the same values on exact Hankel input; LDU is the recurrence's test oracle.

On top of the factorization this module builds the spectral (Jacobi-like)
matrices J with J S = S Lambda by back-substitution on S, each built once
per family and kept on it (callers get copies), the moments (J^j)_{0,0} H_0
from row 0 of J^j alone, three-term recurrence data, second-kind functions
from Cauchy-transformed moments, the Christoffel-Darboux kernels (plain,
mixed, and the ABC inverse-block form), and the Heine multi-sum oracle, a
deliberately brute-force alternative route to P_k used as an independent
cross-check.

Truncation boundaries: a size-n family certifies polynomials up to degree
n-1; the spectral matrix is valid on its leading (n-1) x (n-1) block only,
and callers asking past such limits get InsufficientTruncation.
"""

import itertools
import math
from dataclasses import dataclass, field

from .errors import InsufficientTruncation, NotHankel, NotQuasiDefinite, UnsupportedMeasure
from .gram import DiscreteMeasure, cauchy_moments, gram_matrix
from .numlin import (
    Matrix,
    det,
    hankel_moments,
    is_hankel,
    ldu_factorize,
    solve_vector,
    unit_lower_inverse,
)
from .poly import exact_div, poly_eval, poly_trim
from .scalars import canon


@dataclass(frozen=True)
class BiorthFamilies:
    s1: Matrix
    s2: Matrix
    h: tuple
    gram: Matrix
    hankel: bool
    # J per S matrix, filled by spectral_matrix; invisible to repr and ==.
    _spectral: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.h)

    def poly1(self, k: int):
        """Ascending coefficients of the monic P_{1,k}."""
        return self.s1.rows[k][: k + 1]

    def poly2(self, k: int):
        return self.s2.rows[k][: k + 1]


@dataclass(frozen=True)
class SpectralMatrix:
    j: Matrix
    side: int


@dataclass(frozen=True)
class SecondKindValues:
    point: object
    values1: tuple
    values2: tuple


def build_families(g: Matrix, allow_final_zero: bool = False) -> BiorthFamilies:
    """Factor the square matrix g into a biorthogonal pair.

    allow_final_zero admits a rank-deficient last row (h[-1] = 0), the case
    of a moment matrix one order past the rank of its measure; the final
    polynomials are still well defined and only the last pairing vanishes.
    """
    block = g.canon()
    hankel = is_hankel(block)
    if hankel and not any(isinstance(v, float) for row in block.rows for v in row):
        s1, h = _recurrence_factor(block, allow_final_zero)
        return BiorthFamilies(s1=s1, s2=s1, h=h, gram=block, hankel=True)
    lo, d, up = ldu_factorize(block, allow_final_zero=allow_final_zero)
    return BiorthFamilies(
        s1=unit_lower_inverse(lo).canon(),
        s2=unit_lower_inverse(up.transpose()).canon(),
        h=tuple(canon(v) for v in d),
        gram=block,
        hankel=hankel,
    )


def _recurrence_factor(block: Matrix, allow_final_zero: bool):
    """(S1, H) of an exact n x n Hankel block by the Chebyshev algorithm.

    The moments m_0..m_{2n-2} are the first row and then the last column.
    sig_k[i] = <P_k, x^{k+i}> obeys the three-term recurrence in k, so
    H_k = sig_k[0], b_k = H_k / H_{k-1} and a_k = r_k - r_{k-1} with
    r_k = sig_k[1] / H_k (Gautschi 2004, sec. 2.1.7). P_{k+1} = (x - a_k) P_k
    - b_k P_{k-1} gives the rows of S1. The first vanishing H_k raises
    NotQuasiDefinite(k), as the LDU route does; H_{n-1} is never a divisor.
    """
    n = block.shape[0]
    moments = hankel_moments(block)
    h, polys = [], []
    sig_prev, sig = None, moments
    a = b = r_prev = 0
    for k in range(n):
        if k:
            # Step k-1 -> k with a = a_{k-1}, b = b_{k-1} (b = 0 for k = 1).
            last = polys[-1]
            coeffs = [0] + last
            sig_next = sig[2:]
            if a:
                for j, c in enumerate(last):
                    coeffs[j] = coeffs[j] - a * c
                sig_next = [v - a * s for v, s in zip(sig_next, sig[1:])]
            if b:
                for j, c in enumerate(polys[-2]):
                    coeffs[j] = coeffs[j] - b * c
                sig_next = [v - b * s for v, s in zip(sig_next, sig_prev[2:])]
            sig_prev, sig = sig, sig_next
        else:
            coeffs = [1]
        polys.append(coeffs)
        h.append(sig[0])
        if sig[0] == 0 and not (allow_final_zero and k == n - 1):
            raise NotQuasiDefinite(k)
        if k < n - 1:
            r = exact_div(sig[1], sig[0])
            a, r_prev = r - r_prev, r
            b = exact_div(sig[0], h[k - 1]) if k else 0
    return Matrix([p + [0] * (n - len(p)) for p in polys]).canon(), tuple(canon(v) for v in h)


def family_from_measure(source, n: int) -> BiorthFamilies:
    return build_families(gram_matrix(source, n))


def eval_poly(f: BiorthFamilies, side: int, k: int, x):
    if k >= f.size:
        raise InsufficientTruncation(f"degree {k} exceeds truncation {f.size}")
    row = f.poly1(k) if side == 1 else f.poly2(k)
    return poly_eval(row, x)


def spectral_matrix(f: BiorthFamilies, side: int) -> SpectralMatrix:
    """The (n-1) x (n-1) lower uni-Hessenberg J with J S = S Lambda.

    Row k of J holds the coordinates of x P_k in P_0, ..., P_{k+1}: the
    entry J[k][k+1] is 1, and x P_k - P_{k+1} is reduced against rows k,
    k-1, ..., 0 of the unit lower triangular S by back-substitution. A zero
    multiplier skips its row, so the tridiagonal J of an exact Hankel
    family costs O(n^2) and a full lower-Hessenberg J O(n^3). Row n-1
    would need P_n, which the truncation lacks. Entries are canonical.

    J is built once per family and S matrix and kept on f; side 2 shares
    side 1's J when S2 is S1 (every exact Hankel family). Each call returns
    a fresh copy, so a caller cannot change the kept J.
    """
    n = f.size
    if n < 2:
        raise InsufficientTruncation("spectral matrix needs truncation order >= 2")
    s = f.s1 if side == 1 else f.s2
    key = 1 if s is f.s1 else 2
    if key not in f._spectral:
        rows = []
        for k in range(n - 1):
            rest = [a - b for a, b in zip([0] + s.rows[k], s.rows[k + 1][: k + 1])]
            row = [0] * (k + 1) + [1] + [0] * (n - k - 2)
            for i in range(k, -1, -1):
                c = rest[i]
                if c != 0:
                    row[i] = canon(c)
                    rest[:i] = [r - c * v for r, v in zip(rest[:i], s.rows[i])]
            rows.append(row[: n - 1])
        f._spectral[key] = Matrix(rows)
    return SpectralMatrix(j=f._spectral[key].copy(), side=side)


def three_term_coeffs(f: BiorthFamilies):
    """Hankel three-term data: x P_k = P_{k+1} + a_k P_k + b_k P_{k-1}.

    Returns (b, a) with b[k] = H_k/H_{k-1} for k >= 1 (b[0] = 0 padding)
    and a[k] = S_{k,k-1} - S_{k+1,k} for k <= n-2.
    """
    if not f.hankel:
        raise NotHankel("three-term recurrence needs a Hankel Gram matrix")
    n = f.size
    b = [0] + [exact_div(f.h[k], f.h[k - 1]) for k in range(1, n)]
    a = []
    for k in range(n - 1):
        below = f.s1.rows[k][k - 1] if k >= 1 else 0
        a.append(canon(below - f.s1.rows[k + 1][k]))
    return b, a


def cd_kernel(f: BiorthFamilies, n: int, x, y):
    """K_n(x,y) = sum_{k<=n} P_{2,k}(y) H_k^{-1} P_{1,k}(x)."""
    if n >= f.size:
        raise InsufficientTruncation(f"kernel order {n} exceeds truncation {f.size}")
    acc = 0
    for k in range(n + 1):
        acc = acc + exact_div(poly_eval(f.poly2(k), y) * poly_eval(f.poly1(k), x), f.h[k])
    return canon(acc)


def p2_combination(f: BiorthFamilies, factors):
    """Ascending y-coefficients of sum_k factors[k] P_{2,k}(y)."""
    out = [0] * len(factors)
    for k, c in enumerate(factors):
        if c == 0:
            continue
        for j, pc in enumerate(f.poly2(k)):
            out[j] = out[j] + c * pc
    return poly_trim(out)


def cd_kernel_poly_y(f: BiorthFamilies, n: int, x):
    """K_n(x, y) as a polynomial in y for a fixed scalar x."""
    if n >= f.size:
        raise InsufficientTruncation(f"kernel order {n} exceeds truncation {f.size}")
    return p2_combination(
        f, [exact_div(poly_eval(f.poly1(k), x), f.h[k]) for k in range(n + 1)]
    )


def mixed_cd_kernel(f: BiorthFamilies, c1: SecondKindValues, n: int, y):
    """K^mix_n(x,y) = sum_{k<=n} P_{2,k}(y) H_k^{-1} C_{1,k}(x), x baked into c1."""
    if n >= f.size:
        raise InsufficientTruncation(f"kernel order {n} exceeds truncation {f.size}")
    acc = 0
    for k in range(n + 1):
        acc = acc + exact_div(poly_eval(f.poly2(k), y) * c1.values1[k], f.h[k])
    return canon(acc)


def abc_kernel(g: Matrix, l: int, x, y):
    """K^{[l]}(x,y) = chi(y)^T (G^{[l]})^{-1} chi(x) by exact solve."""
    w = solve_vector(g.leading(l), [x**j for j in range(l)])
    return canon(sum(y**j * w[j] for j in range(l)))


def second_kind_values(f: BiorthFamilies, m: DiscreteMeasure, a) -> SecondKindValues:
    """C_{i,k}(a) = sum_j S_i[k,j] c_j(a) for both families."""
    return second_kind_from_cauchy(f, a, cauchy_moments(m, a, f.size - 1))


def second_kind_from_cauchy(f: BiorthFamilies, a, c) -> SecondKindValues:
    """Second-kind values from an externally supplied Cauchy-moment list.

    Lets continuous measures in: the caller provides c_j(a) (typically from
    cauchy_from_c0 with a float c_0) and the S matrices do the rest.
    """
    v1 = tuple(canon(sum(f.s1.rows[k][j] * c[j] for j in range(k + 1))) for k in range(f.size))
    v2 = tuple(canon(sum(f.s2.rows[k][j] * c[j] for j in range(k + 1))) for k in range(f.size))
    return SecondKindValues(point=a, values1=v1, values2=v2)


def second_kind_series(f: BiorthFamilies, z: float):
    """Truncated Laurent series H S_2^{-T} chi^*(z), float mode.

    chi^*(z) = (z^{-1}, z^{-2}, ...); the series represents C_{1,k}(z) for
    |z| beyond the support and is only as good as the truncation allows.
    """
    s2inv = unit_lower_inverse(f.s2)
    n = f.size
    out = []
    for k in range(n):
        acc = 0.0
        for l in range(k, n):
            acc += float(f.h[k]) * float(s2inv.rows[l][k]) * float(z) ** (-(l + 1))
        out.append(acc)
    return out


def moment_from_spectral(f: BiorthFamilies, j: int):
    """m_j / m_0-free form: (J^j)_{0,0} H_0, valid for j <= 2k-1 on a k x k block.

    Only row 0 of J^j is formed, as j products e_0^T J J ... J of a 1 x k
    row with J. Row 0 of a product depends only on row 0 of its left
    factor, so the result is the dense power's value, in canonical form.
    """
    jm = spectral_matrix(f, 1).j
    k = jm.shape[0]
    if j > 2 * k - 1:
        raise InsufficientTruncation(f"moment index {j} needs a larger truncation")
    row = Matrix([[1] + [0] * (k - 1)])
    for _ in range(j):
        row = row @ jm
    return canon(row.rows[0][0] * f.h[0])


def heine_oracle(m: DiscreteMeasure, k: int, x):
    """P_k(x) by the Heine multi-sum over ordered k-tuples of atoms.

    P_k(x) = 1/(k! det G^{[k]}) * sum over tuples (x_1..x_k) of
    prod w_i * prod (x - x_i) * prod_{i<j} (x_j - x_i)^2. Cost grows as
    atoms^k; this exists purely as an independent oracle for small k.
    """
    if m.max_derivative_order() > 0:
        raise UnsupportedMeasure("Heine sum is defined for plain point masses only")
    if k == 0:
        return 1 if not isinstance(x, float) else 1.0
    atoms = m.atoms
    total = 0
    for combo in itertools.product(atoms, repeat=k):
        term = 1
        for a in combo:
            term = term * a.w * (x - a.q)
        for i in range(k):
            for j in range(i + 1, k):
                term = term * (combo[j].q - combo[i].q) ** 2
        total = total + term
    return exact_div(total, math.factorial(k) * det(gram_matrix(m, k)))
