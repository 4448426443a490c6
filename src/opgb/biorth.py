"""Biorthogonal polynomial families from the Gauss-Borel factorization.

Factor a quasi-definite Gram matrix as G = L D U. The rows of S1 = L^{-1}
are the coefficients of the monic polynomials P_{1,k}(x), the rows of
S2 = U^{-T} those of P_{2,k}(y), and the pivots H_k = D_k are the pairing
values <P_{1,k}, P_{2,k}>; the two sequences are biorthogonal by
construction. When G is Hankel the two families coincide and everything
reduces to classical orthogonal polynomials.

build_families takes one of two routes, both exact; a float entry counts
as its exact binary value (scalars.canon). A Hankel block goes through the
recurrence route: the Chebyshev algorithm reads H_k, a_k and b_k off the
moments and the three-term recurrence builds S1 = S2, in O(n^2) scalar
operations. Its vectors are integers over one shared denominator, so a
step is integer multiply-adds and one gcd, not one per Fraction operation.
A non-Hankel block goes through numlin.gauss_borel, a fraction-free
integer elimination of [D G | I] and [D G^T | I] in O(n^3).
Both hand out canonical scalars. numlin.ldu_factorize followed by two
unit_lower_inverse calls is the test oracle of both routes.

On top of the factorization this module reads the spectral (Jacobi-like)
matrix J with J S = S Lambda, the moments (J^j)_{0,0} H_0, point values,
second-kind functions and the Christoffel-Darboux kernels (plain, mixed,
and the ABC inverse-block form). A Hankel family reads all of them off its
Jacobi band (a_k, b_k), the one value a family derives and keeps: J is
written from the band on each call, P_k(x) and C_k(a) follow from one
three-term step P_{k+1} = (x - a_k) P_k - b_k P_{k-1} in O(n), and m_j is
the pairing of x^s and x^t in the orthogonal basis. point_values is the
one reader of values at a point: the kernels, the transform formulas and
the CLI take P_k(x) from it. A table has no band (NotHankel): it builds J
by back-substitution on S on each call and evaluates the rows of S by
Horner, and has no second-kind values or moments, which belong to a
measure. On Hankel families the S-row routes (back_substituted_spectral,
Horner, second_kind_from_cauchy) are the test oracles of the band. The
Heine multi-sum is a deliberately brute-force alternative route to P_k
used as an independent cross-check.

identity_checks is the suite the identities command prints: the paper's
identities on a built family, each as a (name, exact residual) record.

Truncation boundaries: a size-n family certifies P_{i,k} for 0 <= k < n
only, and BiorthFamilies.poly1 / poly2 are the one degree check: every
function here and in transforms reads its polynomials through them, so a
degree outside that range raises InsufficientTruncation. The spectral
matrix is valid on its leading (n-1) x (n-1) block only, and
moment_from_spectral refuses an index past what that block certifies.
"""

import itertools
import math
from fractions import Fraction
from functools import cached_property

from .errors import InsufficientTruncation, NotHankel, NotQuasiDefinite, UnsupportedMeasure
from .gram import DiscreteMeasure, cauchy_moments, gram_matrix
from .numlin import (
    Matrix,
    _integers,
    det,
    faddeev_leverrier,
    gauss_borel,
    hankel_moments,
    is_hankel,
    solve_vector,
)
from .poly import exact_div, poly_eval, poly_trim
from .record import Record
from .scalars import canon


class BiorthFamilies(Record):
    s1: Matrix
    s2: Matrix
    h: tuple
    gram: Matrix
    hankel: bool

    @property
    def size(self) -> int:
        return len(self.h)

    @cached_property
    def _band(self):
        """(a, b): x P_k = P_{k+1} + a_k P_k + b_k P_{k-1}, canonical; NotHankel on a table.

        a[k] = S_{k,k-1} - S_{k+1,k} for k <= n-2, b[k] = H_k / H_{k-1} for
        k >= 1 and b[0] = 0. Kept in the instance __dict__, not a field, so
        repr, == and record.replace never see it.
        """
        if not self.hankel:
            raise NotHankel("the three-term recurrence needs a Hankel Gram matrix")
        s, n = self.s1.rows, self.size
        a = tuple(canon((s[k][k - 1] if k else 0) - s[k + 1][k]) for k in range(n - 1))
        b = (0,) + tuple(exact_div(self.h[k], self.h[k - 1]) for k in range(1, n))
        return a, b

    def poly1(self, k: int):
        """Ascending coefficients of the monic P_{1,k}, certified for 0 <= k < size."""
        return self._certified(self.s1, k)

    def poly2(self, k: int):
        return self._certified(self.s2, k)

    def _certified(self, s: Matrix, k: int):
        if not 0 <= k < self.size:
            raise InsufficientTruncation(f"degree {k} is outside the certified degrees 0..{self.size - 1}")
        return s.rows[k][: k + 1]


class SpectralMatrix(Record):
    j: Matrix
    side: int


class SecondKindValues(Record):
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
    if is_hankel(block):
        s1, h = _recurrence_factor(block, allow_final_zero)
        return BiorthFamilies(s1=s1, s2=s1, h=h, gram=block, hankel=True)
    s1, s2, h = gauss_borel(block, allow_final_zero)
    return BiorthFamilies(s1=s1, s2=s2, h=h, gram=block, hankel=False)


def _recurrence_factor(block: Matrix, allow_final_zero: bool):
    """(S1, H) of an n x n Hankel block by the Chebyshev algorithm.

    The moments m_0..m_{2n-2} are the first row and then the last column.
    sig_k[i] = <P_k, x^{k+i}> obeys the three-term recurrence in k, so
    H_k = sig_k[0], b_k = H_k / H_{k-1} and a_k = r_k - r_{k-1} with
    r_k = sig_k[1] / H_k (Gautschi 2004, sec. 2.1.7). P_{k+1} = (x - a_k) P_k
    - b_k P_{k-1} gives the rows of S1. The first vanishing H_k raises
    NotQuasiDefinite(k), as gauss_borel does; H_{n-1} is never a divisor.

    Each sig_k and each row P_k is a vector of integers over one shared
    denominator, so a step is integer multiply-adds and one gcd per vector
    (_combine); only the O(n) scalars H_k, r_k, a_k and b_k are Fractions.
    The rows of S1 become canonical scalars once, at the end.
    """
    n = block.shape[0]
    h, polys = [], []
    # P_{-1} = 0 and sig_{-1} = () stand in for the term that b_0 = 0 drops.
    p_prev, p = ([], 1), ([1], 1)
    sig_prev, sig = ([], 1), _integers(hankel_moments(block))
    a = b = r_prev = 0
    for k in range(n):
        if k:
            # Step k-1 -> k with a = a_{k-1}, b = b_{k-1}.
            (ints, den), (pints, pden) = sig, p
            p_prev, p = p, _combine(([0] + pints, pden), (-a, p), (-b, p_prev))
            sig_prev, sig = sig, _combine(
                (ints[2:], den), (-a, (ints[1:], den)), (-b, (sig_prev[0][2:], sig_prev[1])))
        polys.append(p)
        ints, den = sig
        h.append(Fraction(ints[0], den))
        if ints[0] == 0 and not (allow_final_zero and k == n - 1):
            raise NotQuasiDefinite(k)
        if k < n - 1:
            r = Fraction(ints[1], ints[0])
            a, r_prev = r - r_prev, r
            b = h[k] / h[k - 1] if k else 0
    rows = [[canon(Fraction(v, den)) for v in ints] + [0] * (n - len(ints)) for ints, den in polys]
    return Matrix(rows), tuple(canon(v) for v in h)


def _combine(x, *terms):
    """x + sum of c * v over the (c, v) terms, as one vector over one denominator.

    A vector is (ints, den), the values ints[i] / den. The result has x's
    length: a shorter v adds into its prefix and a longer one is cut. The
    terms are brought onto the lcm of their denominators, summed in
    integers, and the gcd of the sums and that lcm is divided out once.
    A term with c = 0 is skipped.

    A term c * v = (p / q) * ints / d is first written (p / g) * ints / (q d / g)
    with g = gcd(p, d), so that the lcm, and every sum over it, carries no
    factor the term cancels itself. In the recurrence the numerator of b_k
    holds nearly all of the denominator of P_{k-1} and of sig_{k-1}: on the
    40-atom measure at n = 40 the lcm reaches 8.5k bits with the cancelling
    and 11.2k without it, for results that reduce to 2.9k.
    """
    xs, den = x
    scaled = [(Fraction(c), v) for c, v in terms if c]
    lcm = math.lcm(den, *(c.denominator * (d // math.gcd(c.numerator, d)) for c, (_, d) in scaled))
    f = lcm // den
    out = [f * v for v in xs]
    for c, (ints, d) in scaled:
        g = math.gcd(c.numerator, d)
        f = c.numerator // g * (lcm // (c.denominator * (d // g)))
        head = [o + f * v for o, v in zip(out, ints)]
        out = head + out[len(head):]
    g = math.gcd(lcm, *out)
    if g != 1:
        out = [v // g for v in out]
    return out, lcm // g


def family_from_measure(source, n: int) -> BiorthFamilies:
    return build_families(gram_matrix(source, n))


def eval_poly(f: BiorthFamilies, side: int, k: int, x):
    """P_{side,k}(x), canonical; the point is taken exactly (scalars.canon)."""
    return canon(point_values(f, side, k, x)[k])


def point_values(f: BiorthFamilies, side: int, n: int, x):
    """[P_{side,0}(x), ..., P_{side,n}(x)], the point taken exactly (scalars.canon).

    A Hankel family runs P_{k+1} = (x - a_k) P_k - b_k P_{k-1} on its band;
    a non-Hankel family evaluates the rows of its S matrix by Horner.
    """
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, not {side!r}")
    poly = f.poly1 if side == 1 else f.poly2
    poly(n)  # refuses an order outside 0..size-1, n < 0 included
    x = canon(x)
    if not f.hankel:
        return [poly_eval(poly(k), x) for k in range(n + 1)]
    return _three_term(f, x, 1, 0, n)


def _three_term(f: BiorthFamilies, x, v0, before, n: int):
    """[v_0, ..., v_n] by v_{k+1} = (x - a_k) v_k - b_k v_{k-1} on f's band, with
    before for b_0 v_{-1}: v_0 = 1 and 0 give P_k(x), c_0(x) and H_0 give C_k(x)."""
    a, b = f._band
    out = [v0]
    for k in range(n):
        out.append((x - a[k]) * out[k] - (b[k] * out[k - 1] if k else before))
    return out


def spectral_matrix(f: BiorthFamilies, side: int) -> SpectralMatrix:
    """The (n-1) x (n-1) lower uni-Hessenberg J with J S = S Lambda.

    Row k of J holds the coordinates of x P_k in P_0, ..., P_{k+1}, and
    J[k][k+1] = 1. A Hankel family's J is tridiagonal and read off its band:
    J[k][k-1] = b_k, J[k][k] = a_k. Other families build it by
    back_substituted_spectral. Row n-1 would need P_n, which the truncation
    lacks. Entries are canonical.

    J is written on each call and f keeps none, so a caller owns the J it
    gets; only the band of a Hankel family is kept.
    """
    if side not in (1, 2):
        raise ValueError(f"side must be 1 or 2, not {side!r}")
    n = f.size
    if n < 2:
        raise InsufficientTruncation("spectral matrix needs truncation order >= 2")
    if not f.hankel:
        return SpectralMatrix(j=back_substituted_spectral(f.s1 if side == 1 else f.s2), side=side)
    a, b = f._band
    rows = [[0] * (n - 1) for _ in range(n - 1)]
    for k, row in enumerate(rows):
        row[k] = a[k]
        if k:
            row[k - 1] = b[k]
        if k < n - 2:
            row[k + 1] = 1
    return SpectralMatrix(j=Matrix(rows), side=side)


def back_substituted_spectral(s: Matrix) -> Matrix:
    """J with J S = S Lambda by back-substitution on the unit lower triangular S.

    x P_k - P_{k+1} is reduced against rows k, k-1, ..., 0 of S; a zero
    multiplier skips its row, so a tridiagonal J costs O(n^2) and a full
    lower-Hessenberg J O(n^3). The non-Hankel route of spectral_matrix, and
    the labelled oracle of the band on Hankel families.
    """
    n = s.shape[0]
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
    return Matrix(rows)


def three_term_coeffs(f: BiorthFamilies):
    """Hankel three-term data: x P_k = P_{k+1} + a_k P_k + b_k P_{k-1}.

    Returns copies (b, a) of the family's band: b[k] = H_k/H_{k-1} for
    k >= 1 (b[0] = 0 padding) and a[k] = S_{k,k-1} - S_{k+1,k} for k <= n-2.
    """
    a, b = f._band
    return list(b), list(a)


def cd_kernel(f: BiorthFamilies, n: int, x, y):
    """K_n(x,y) = sum_{k<=n} P_{2,k}(y) H_k^{-1} P_{1,k}(x)."""
    px, py = point_values(f, 1, n, x), point_values(f, 2, n, y)
    acc = 0
    for k in range(n + 1):
        acc = acc + exact_div(py[k] * px[k], f.h[k])
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
    px = point_values(f, 1, n, x)
    return p2_combination(f, [exact_div(px[k], f.h[k]) for k in range(n + 1)])


def mixed_cd_kernel(f: BiorthFamilies, c1: SecondKindValues, n: int, y):
    """K^mix_n(x,y) = sum_{k<=n} P_{2,k}(y) H_k^{-1} C_{1,k}(x), x baked into c1."""
    py = point_values(f, 2, n, y)
    acc = 0
    for k in range(n + 1):
        acc = acc + exact_div(py[k] * c1.values1[k], f.h[k])
    return canon(acc)


def abc_kernel(g: Matrix, l: int, x, y):
    """K^{[l]}(x,y) = chi(y)^T (G^{[l]})^{-1} chi(x) by exact solve; points taken exactly."""
    x, y = canon(x), canon(y)
    w = solve_vector(g.leading(l), [x**j for j in range(l)])
    return canon(sum(y**j * w[j] for j in range(l)))


def second_kind_values(f: BiorthFamilies, m: DiscreteMeasure, a) -> SecondKindValues:
    """C_k(a) = <m, P_k(x) / (a - x)>; m is f's measure, so f is Hankel.

    second_kind_from_c0 on the Cauchy value c_0(a) of m alone; a non-Hankel
    family raises NotHankel there.
    """
    return second_kind_from_c0(f, a, cauchy_moments(m, a, 0)[0])


def second_kind_from_c0(f: BiorthFamilies, a, c0) -> SecondKindValues:
    """Second-kind values of a Hankel family from c_0(a) alone (Gautschi 1967).

    C_k(a) = <mu, P_k(x) / (a - x)> obeys the recurrence of P_k, except that
    <mu, P_0> = H_0 enters the first step: C_1 = (a - a_0) c_0 - H_0 and
    C_{k+1} = (a - a_k) C_k - b_k C_{k-1}. This is how continuous measures
    enter: the caller supplies a rational c_0(a). a and c_0 are taken exactly.
    """
    a = canon(a)
    values = tuple(canon(v) for v in _three_term(f, a, canon(c0), f.h[0], f.size - 1))
    return SecondKindValues(point=a, values1=values, values2=values)


def second_kind_from_cauchy(f: BiorthFamilies, a, c) -> SecondKindValues:
    """Second-kind values C_{i,k}(a) = sum_j S_i[k,j] c_j(a) from the Cauchy moments c.

    The labelled test oracle of second_kind_from_c0; no production route calls it.
    """
    v1 = tuple(canon(sum(f.s1.rows[k][j] * c[j] for j in range(k + 1))) for k in range(f.size))
    v2 = tuple(canon(sum(f.s2.rows[k][j] * c[j] for j in range(k + 1))) for k in range(f.size))
    return SecondKindValues(point=canon(a), values1=v1, values2=v2)


def moment_from_spectral(f: BiorthFamilies, j: int):
    """m_j = (J^j)_{0,0} H_0 of a Hankel family, for j <= 2k-1 on the k x k block J.

    c_t = row 0 of J^t is formed on the band for t <= ceil(j/2) only: c_t
    holds the coordinates of x^t in P_0, ..., P_t, so with s = floor(j/2)
    and t = ceil(j/2) the moment is <x^s, x^t> = sum_i c_{s,i} c_{t,i} H_i,
    the dense power's value in canonical form. A non-Hankel family has no
    moment sequence and raises NotHankel.
    """
    a, b = f._band
    if f.size < 2:
        raise InsufficientTruncation("spectral matrix needs truncation order >= 2")
    k = f.size - 1
    if not 0 <= j <= 2 * k - 1:
        raise InsufficientTruncation(f"moment index {j} is outside the certified 0..{2 * k - 1}")
    rows = [[1]]
    for _ in range(j - j // 2):
        # (c J)_i = c_{i-1} + a_i c_i + b_{i+1} c_{i+1}; J is k x k, so index k drops.
        c = rows[-1] + [0, 0]
        rows.append([(c[i - 1] if i else 0) + a[i] * c[i] + b[i + 1] * c[i + 1]
                     for i in range(min(len(c) - 1, k))])
    cs, ct = rows[j // 2], rows[-1]
    return canon(sum(u * v * h for u, v, h in zip(cs, ct, f.h)))


def identity_checks(f: BiorthFamilies, source, seed: int):
    """(name, residual) of each of the paper's identities on f, the family of source.

    Every residual is exact and zero when its identity holds:
    biorthogonality S1 G S2^T = diag(H); the ABC form of the kernel against
    cd_kernel; P_k = det(x - J_k), by faddeev_leverrier (char_poly's
    recurrence would restate how J was built); on a Hankel family the moments
    m_j = (J^j)_{0,0} H_0 and the Christoffel-Darboux formula; and on a
    discrete measure the mixed CD formula at a point off its support. The
    points are rationals drawn from random.Random(seed), always in the same
    order.
    """
    import random  # only the identities suite draws points

    rng = random.Random(seed)
    n, m = f.size, f.size - 2
    prod = f.s1 @ f.gram @ f.s2.transpose()
    checks = [("biorthogonality", max(abs(prod.rows[i][j] - (f.h[i] if i == j else 0))
                                      for i in range(n) for j in range(n)))]
    pts = _random_rationals(rng, 20)
    pairs = list(zip(pts[:10], pts[10:]))
    checks.append(("abc_equals_cd", max(abs(cd_kernel(f, n - 1, x, y) - abc_kernel(f.gram, n, x, y))
                                        for x, y in pairs)))
    if n >= 2:
        jm = spectral_matrix(f, 1).j
        checks.append(("roots_are_truncation_eigenvalues", max(abs(a - b) for k in range(1, n)
                       for a, b in zip(faddeev_leverrier(jm.leading(k)), f.poly1(k)))))
    if f.hankel:
        ms = hankel_moments(f.gram)
        checks.append(("moment_identity", max((abs(moment_from_spectral(f, j) - ms[j])
                                               for j in range(2 * n - 2)), default=0)))
        if m >= 0:
            worst = 0
            for x, y in pairs:
                px, py = point_values(f, 1, m + 1, x), point_values(f, 2, m + 1, y)
                rhs = exact_div(px[m + 1] * py[m] - px[m] * py[m + 1], f.h[m])
                worst = max(worst, abs((x - y) * cd_kernel(f, m, x, y) - rhs))
            checks.append(("cd_formula", worst))
    if isinstance(source, DiscreteMeasure):
        support = set(source.support())
        a = next(p for p in _random_rationals(rng, 50, 7, 9) if p not in support)
        c1 = second_kind_values(f, source, a)
        if m >= 0:
            worst = 0
            for y in pts[:10]:
                py = point_values(f, 2, m + 1, y)
                rhs = exact_div(py[m] * c1.values1[m + 1] - py[m + 1] * c1.values1[m], f.h[m]) + 1
                worst = max(worst, abs((a - y) * mixed_cd_kernel(f, c1, m, y) - rhs))
            checks.append(("mixed_cd_formula", worst))
    return checks


def _random_rationals(rng, count, den_max=12, num_max=20):
    return [Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max)) for _ in range(count)]


def heine_oracle(m: DiscreteMeasure, k: int, x):
    """P_k(x) by the Heine multi-sum over ordered k-tuples of atoms.

    P_k(x) = 1/(k! det G^{[k]}) * sum over tuples (x_1..x_k) of
    prod w_i * prod (x - x_i) * prod_{i<j} (x_j - x_i)^2. Cost grows as
    atoms^k; this exists purely as an independent oracle for small k. The
    point is taken exactly.
    """
    if m.max_derivative_order() > 0:
        raise UnsupportedMeasure("Heine sum is defined for plain point masses only")
    if k == 0:
        return 1
    x, total = canon(x), 0
    for combo in itertools.product(m.atoms, repeat=k):
        term = 1
        for a in combo:
            term = term * a.w * (x - a.q)
        for i in range(k):
            for j in range(i + 1, k):
                term = term * (combo[j].q - combo[i].q) ** 2
        total = total + term
    return exact_div(total, math.factorial(k) * det(gram_matrix(m, k)))
