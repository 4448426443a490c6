"""Pearson-equation data for the Hermite, Laguerre, and Jacobi weights.

A classical weight u satisfies p2 u' = p1 u with deg p2 <= 2, deg p1 = 1.
Writing p2 = a x^2 + b x + c and A x + B = p2' + p1, integration by parts
of (p2 x^j u)' = 0 turns the Pearson equation into a two-term moment
recurrence, and the same data yields closed forms for the subdiagonal of
the polynomial coefficient matrix and for the eigenvalues of the
second-order operator the family diagonalizes:

    F = d^2/dx^2 p2 + d/dx (A x + B),   F[P_n] = n (A + (n-1) a) P_n.

classical_checks holds built families to these closed forms; it takes the
families because this module sits below gram and biorth. Everything is
exact for rational parameters.
"""

from fractions import Fraction

from .errors import DegenerateDenominator, DegenerateRecurrence, UnsupportedMeasure
from .numlin import Matrix
from .poly import exact_div
from .record import Record
from .scalars import canon

FAMILIES = ("hermite", "laguerre", "jacobi")


class PearsonData(Record, exact=True):
    a: Fraction | int
    b: Fraction | int
    c: Fraction | int
    A: Fraction | int
    B: Fraction | int


def pearson_data(w) -> PearsonData:
    """Pearson data for a ClassicalWeight-like object (family, alpha, beta)."""
    fam = w.family
    if fam == "hermite":
        return PearsonData(0, 0, 1, -2, 0)
    if fam == "laguerre":
        return PearsonData(0, 1, 0, -1, 1 + w.alpha)
    if fam == "jacobi":
        return PearsonData(-1, 0, 1, -(w.alpha + w.beta + 2), -(w.alpha - w.beta))
    raise UnsupportedMeasure(f"unknown classical family {fam!r}")


def classical_moments(p: PearsonData, j_max: int):
    """Normalized moments m_0..m_{j_max} (m_0 = 1) from the Pearson recurrence.

    (A + j a) m_{j+1} = -(B + j b) m_j - j c m_{j-1}.
    """
    m = [1]
    for j in range(j_max):
        lead = p.A + j * p.a
        if lead == 0:
            raise DegenerateRecurrence(f"A + {j} a = 0 in the moment recurrence")
        rhs = -(p.B + j * p.b) * m[j]
        if j >= 1:
            rhs = rhs - j * p.c * m[j - 1]
        m.append(exact_div(rhs, lead))
    return m


def classical_subdiagonal(p: PearsonData, n: int):
    """Closed form S_{n+1,n} = (n+1)(B + n b) / (A + 2 n a)."""
    den = p.A + 2 * n * p.a
    if den == 0:
        raise DegenerateDenominator(f"A + 2 n a = 0 at n = {n}")
    return exact_div((n + 1) * (p.B + n * p.b), den)


def classical_eigenvalue(p: PearsonData, n: int):
    """Eigenvalue n (A + (n-1) a) of the operator F on the degree-n polynomial, canonical."""
    return canon(n * (p.A + (n - 1) * p.a))


def diff_operator_matrix(p: PearsonData, n: int) -> Matrix:
    """Truncated matrix of F: D^2 p2(Lambda) + D (A Lambda + B), by its bands.

    Row l holds l(l-1) a + l A at column l, l(l-1) b + l B at l-1 and
    l(l-1) c at l-2. An entry sums only its nonzero terms, from int 0, as
    the dense product does. That product is its test oracle
    (dense_diff_operator in tests/conftest.py).
    """
    out = Matrix.zeros(n)
    for l in range(n):
        k = l * (l - 1)
        for col, terms in ((l, (k * p.a, l * p.A)), (l - 1, (k * p.b, l * p.B)), (l - 2, (k * p.c,))):
            if col >= 0:
                out.rows[l][col] = sum(t for t in terms if t != 0)
    return out


def classical_checks(p: PearsonData, f, f_up):
    """(name, residual) of each closed-form check on a classical weight; exact, zero when it holds.

    f and f_up are the size-(n + 2) families of the weight and of the weight
    with its parameters raised by one (u multiplied by p2). The checks: the
    subdiagonal S_{m+1,m} against classical_subdiagonal for m < n; S1 T =
    diag(lambda) S1, i.e. S1 T S1^{-1} = diag(lambda), with T applied by its
    three bands, (S1 T)_{ij} = sum_{l=j..j+2} S1_{il} T_{lj}; and the norm
    ratio H_m (A + (m-1) a) = -m kappa H^up_{m-1} for 1 <= m <= n, with
    kappa = <p2> = a m_2 + b m_1 + c.
    """
    size, s = f.size, f.s1.rows
    n = size - 2
    sub = max((abs(classical_subdiagonal(p, m) - s[m + 1][m]) for m in range(n)), default=0)
    t = diff_operator_matrix(p, size).rows
    diag = max(abs(sum(s[i][l] * t[l][j] for l in range(j, min(j + 3, size)))
                   - classical_eigenvalue(p, i) * s[i][j]) for i in range(size) for j in range(size))
    _, m1, m2 = classical_moments(p, 2)
    kappa = p.a * m2 + p.b * m1 + p.c
    ratio = max((abs(f.h[m] * (p.A + (m - 1) * p.a) + m * kappa * f_up.h[m - 1])
                 for m in range(1, n + 1)), default=0)
    return [("subdiagonal_closed_form", sub), ("operator_diagonalization", diag),
            ("norm_ratio_parameter_shift", ratio)]
