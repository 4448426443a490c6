"""Independent references for checking opgb outputs.

Nothing here imports opgb. Moments come from their definitions or closed
forms, norms from classical closed forms, and every family the program
returns is held against pairings recomputed from these moments, so a check
never trusts a number only the code under test produced.
"""

from fractions import Fraction
from math import comb, factorial, perm

# Stated relative tolerance for float results against exact references.
FLOAT_RTOL = 1e-6


def fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def pochhammer(a, n):
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


# ---- moments -------------------------------------------------------------

def discrete_moments(atoms, j_max):
    """m_j of sum w delta^(d)_q: the d-th derivative of x^j at q, times w."""
    out = []
    for j in range(j_max + 1):
        acc = Fraction(0)
        for q, w, d in atoms:
            if j >= d:
                acc += w * perm(j, d) * q ** (j - d)
        out.append(acc)
    return out


def classical_moments(family, alpha, beta, j_max):
    """Moments normalized to m_0 = 1, from closed forms."""
    if family == "hermite":
        return [
            Fraction(factorial(j), 4 ** (j // 2) * factorial(j // 2)) if j % 2 == 0 else Fraction(0)
            for j in range(j_max + 1)
        ]
    if family == "laguerre":
        return [pochhammer(alpha + 1, j) for j in range(j_max + 1)]
    # x = 2t - 1 turns the Jacobi integral into Beta integrals.
    return [
        sum(
            comb(j, i) * 2**i * (-1) ** (j - i) * pochhammer(beta + 1, i) / pochhammer(alpha + beta + 2, i)
            for i in range(j + 1)
        )
        for j in range(j_max + 1)
    ]


def classical_norms(family, alpha, beta, count):
    """H_n / H_0 for the monic classical families, n < count."""
    out = []
    acc = Fraction(1)
    for n in range(count):
        if n > 0:
            if family == "hermite":
                acc *= Fraction(n, 2)
            elif family == "laguerre":
                acc *= n * (alpha + n)
            else:
                s = alpha + beta
                acc *= Fraction(4 * n) * (n + alpha) * (n + beta) * (n + s) / (
                    (2 * n + s) ** 2 * (2 * n + s + 1) * (2 * n + s - 1)
                )
        out.append(acc)
    return out


def classical_eigenvalue(family, alpha, beta, n):
    """Eigenvalue of the classical second-order operator on P_n."""
    if family == "hermite":
        return -2 * n
    if family == "laguerre":
        return -n
    return -n * (n + alpha + beta + 1)


def atoms_of(spec):
    """(q, w, d) triples of a discrete measure spec."""
    return [(Fraction(a["q"]), Fraction(a["w"]), a.get("d", 0)) for a in spec["atoms"]]


def spec_moments(spec, j_max):
    """Moments of a measure spec, or None for a bivariate table."""
    if spec["type"] == "discrete":
        return discrete_moments(atoms_of(spec), j_max)
    if spec["type"] == "classical":
        return classical_moments(
            spec["family"], Fraction(spec.get("alpha", 0)), Fraction(spec.get("beta", 0)), j_max
        )
    return None


def pairing(p, q, spec=None, ms=None, table=None):
    """<p, q> = sum p_i q_j m_{i+j}, or p^T G q for a table."""
    if table is None and spec is not None and spec["type"] == "bivariate":
        table = [[Fraction(v) for v in row] for row in spec["entries"]]
    if table is not None:
        return sum(pi * sum(g * qj for g, qj in zip(table[i], q) if qj) for i, pi in enumerate(p) if pi)
    if ms is None:
        ms = spec_moments(spec, len(p) + len(q) - 2)
    return sum(pi * qj * ms[i + j] for i, pi in enumerate(p) if pi for j, qj in enumerate(q) if qj)


# ---- transformed measures ------------------------------------------------

def multiply_moments(ms, roots):
    """Moments of (prod (x - r)) mu from those of mu (the list shortens)."""
    for r in roots:
        ms = [ms[j + 1] - r * ms[j] for j in range(len(ms) - 1)]
    return ms


def multiply_rows(table, roots):
    """Rows of W(Lambda) G for W = prod (x - r): the Christoffel transform of a table."""
    for r in roots:
        table = [[a - r * b for a, b in zip(table[i + 1], table[i])] for i in range(len(table) - 1)]
    return table


def geronimus_moments(atoms, a, xi, j_max):
    """Moments of mu / (x - a) + xi delta_a: -c_j(a) + xi a^j."""
    return [-cauchy(atoms, [0] * j + [1], a) + xi * Fraction(a) ** j for j in range(j_max + 1)]


def cauchy(atoms, poly, a):
    """<mu_x, poly(x) / (a - x)>, derivative atoms included."""
    out = Fraction(0)
    for q, w, d in atoms:
        # d-th derivative of poly(x) (a - x)^{-1} at q, by Leibniz.
        acc = Fraction(0)
        for t in range(d + 1):
            acc += comb(d, t) * poly_eval(poly_deriv(poly, d - t), q) * factorial(t) / (a - q) ** (t + 1)
        out += w * acc
    return out


# ---- polynomials (ascending coefficient lists) ---------------------------

def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p, times=1):
    for _ in range(times):
        p = [i * p[i] for i in range(1, len(p))] or [0]
    return p


def poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_rem(p, q):
    p = [Fraction(c) for c in poly_trim(p)]
    q = poly_trim(q)
    while len(p) >= len(q) and any(p):
        c = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, qc in enumerate(q):
            p[shift + i] -= c * qc
        p = poly_trim(p[:-1]) if len(p) > 1 else [Fraction(0)]
    return poly_trim(p)


def real_root_count(p):
    """Distinct real roots of p, by a Sturm sequence in exact arithmetic."""
    seq = [poly_trim(p), poly_trim(poly_deriv(p))]
    while len(seq[-1]) > 1 or seq[-1][0] != 0:
        rem = poly_rem(seq[-2], seq[-1])
        if len(rem) == 1 and rem[0] == 0:
            break
        seq.append([-c for c in rem])

    def changes(at_plus):
        signs = []
        for s in seq:
            lead = 1 if s[-1] > 0 else -1
            if not at_plus and (len(s) - 1) % 2:
                lead = -lead
            signs.append(lead)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return changes(False) - changes(True)


def rel_close(got, want, scale=None, rtol=FLOAT_RTOL):
    scale = abs(want) if scale is None else max(scale, abs(want))
    return abs(float(got) - float(want)) <= rtol * max(scale, 1e-300)
