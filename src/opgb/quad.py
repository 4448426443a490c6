"""Gauss quadrature from the three-term recurrence (float mode).

The k-point rule for a Hankel family has the zeros of P_k as nodes and the
Christoffel numbers 1 / K_{k-1}(x, x) as weights, whatever the signs of
H_j (Gautschi 2004, sec. 3.1). Both come from the exact band of J_k, a_j
and b_j = H_j / H_{j-1} for j < k as the family keeps it
(three_term_coeffs), scaled by a power of two so that every |a_j| and
|b_j|^{1/2} is at most 1. Balanced by diag(|H_j/H_0|^{1/2}) it becomes T,
with |b_j|^{1/2} above the diagonal and sign(b_j) |b_j|^{1/2} below, whose
Gershgorin discs hold every zero in (-3, 3). Each node is found by
bisection on a count of the zeros below a point (Barth, Martin & Wilkinson
1967): the negative LDL^T pivots of T - t when every b_j > 0 and T is
symmetric (method "eigh"), otherwise an exact integer Sturm chain of P_k,
which first refuses non-real or multiple zeros as NonPositive (method
"companion"). The weights are H_0 / sum_j sign(H_j/H_0) q_j^2, with q_j =
|H_0/H_j|^{1/2} P_j from the orthonormal recurrence on T. A node or weight
past the float range raises OverflowError.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .biorth import BiorthFamilies, three_term_coeffs
from .errors import InsufficientTruncation, NonPositive, NotHankel
from .numlin import _integers
from .poly import poly_trim


@dataclass(frozen=True)
class QuadratureRule:
    nodes: tuple
    weights: tuple
    order: int
    method: str


def gauss_rule(f: BiorthFamilies, k: int) -> QuadratureRule:
    """k-point Gauss rule; its weights sum to H_0."""
    if not f.hankel:
        raise NotHankel("Gauss rules need a Hankel family")
    if k < 1:
        raise ValueError("k must be at least 1")
    if f.size - 1 < k:
        raise InsufficientTruncation(f"k = {k} needs a family of size >= {k + 1}")
    h0 = float(f.h[0])
    # b[j] = H_j / H_{j-1}, never zero below the family's last row; b[0] = 0 pads.
    b, a = three_term_coeffs(f)
    a, b = a[:k], b[:k]
    e, diag, sub = _scaled(a, b)
    if all(v > 0 for v in b[1:]):
        count, method = _band_count(diag, sub), "eigh"
    else:
        count, method = _chain_count(f.poly1(k), e), "companion"
    ts = _bisect(count, k, -4.0, 4.0)
    # off[j] = |b_j|^{1/2} and below[j] = sign(b_j) off[j], scaled: T's entries.
    off = [math.sqrt(abs(v)) for v in sub]
    below = [o if v > 0 else -o for o, v in zip(off, b)]
    weights = []
    for t in ts:
        q_prev, q, kernel, eps = 0.0, 1.0, 1.0, 1.0
        for j in range(1, k):
            q_prev, q = q, ((t - diag[j - 1]) * q - below[j - 1] * q_prev) / off[j]
            eps = eps if b[j] > 0 else -eps
            kernel += eps * q * q
        weights.append(h0 / kernel)
    if not all(map(math.isfinite, weights)):
        raise OverflowError(f"a weight of the {k}-point rule is past the float range")
    return QuadratureRule(nodes=tuple(math.ldexp(t, e) for t in ts), weights=tuple(weights),
                          order=k, method=method)


def _scaled(a, b):
    """(e, diag, sub): a_j / 2^e and b_j / 4^e as floats, e from bit lengths so each is at most 1."""
    def bits(v):
        return v.numerator.bit_length() - v.denominator.bit_length() + 1

    e = max([bits(v) for v in a if v] + [-(-bits(v) // 2) for v in b if v], default=0)
    scale = Fraction(2) ** -e
    return e, [float(v * scale) for v in a], [float(v * scale * scale) for v in b]


def _bisect(count, k, lo, hi):
    """The k zeros in (lo, hi), ascending; count(t) counts the zeros below t or at it.

    Zero l lies in (a, b] while count(a) <= l < count(b), so b is returned and a
    zero a midpoint hits comes back exactly. A bracket halves until its width
    is 2^-60 (of the scaled band's size) or no float lies strictly inside it.
    """
    nodes = []
    for l in range(k):
        a, b = lo, hi
        mid = (a + b) / 2
        while b - a > 2.0**-60 and a < mid < b:
            a, b = (a, mid) if count(mid) > l else (mid, b)
            mid = (a + b) / 2
        nodes.append(b)
    return nodes


def _band_count(diag, sub):
    """Eigenvalues of T below t: the negative LDL^T pivots of T - t, with T_{j,j-1}^2 = sub[j].

    A pivot smaller than 2^-1000 counts as -2^-1000, as in LAPACK's dstebz.
    """
    pairs = list(zip(diag, sub))

    def count(t):
        n, d = 0, 1.0
        for a, s in pairs:
            d = a - t - s / d
            if d < 2.0**-1000:
                n += 1
                if d > -(2.0**-1000):
                    d = -(2.0**-1000)
        return n
    return count


def _chain_count(p, e):
    """Zeros of p at or below t 2^e, on a Sturm chain; NonPositive unless deg p distinct reals.

    Chain rows are primitive integer vectors: a division step multiplies by
    |lc| and a row is divided by its content, so the signs are the classical chain's.
    """
    k = len(p) - 1
    chain = [_primitive(p), _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        u, v = chain[-2], chain[-1]
        while len(u) >= len(v):
            lead, shift = u[-1] if v[-1] > 0 else -u[-1], len(u) - len(v)
            u = [abs(v[-1]) * c - lead * (v[i - shift] if i >= shift else 0) for i, c in enumerate(u[:-1])]
        if not any(u):
            raise NonPositive(f"degenerate node set: P_{k} has a multiple root")
        chain.append(_primitive([-c for c in poly_trim(u)]))
    below_all = _changes(c[-1] * (-1) ** (len(c) - 1) for c in chain)
    if below_all - _changes(c[-1] for c in chain) < k:
        raise NonPositive(f"P_{k} has non-real roots; no real quadrature rule exists")
    scale = Fraction(2) ** e

    def count(t):
        n, d = (Fraction(t) * scale).as_integer_ratio()
        return below_all - _changes(_homogeneous(c, n, d) for c in chain)
    return count


def _primitive(p):
    ints, _ = _integers(p)
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _homogeneous(c, n, d):
    """d^deg c(n/d), which has the sign of c(n/d) for d > 0."""
    acc, power = c[-1], d
    for coef in reversed(c[:-1]):
        acc, power = acc * n + coef * power, power * d
    return acc


def _changes(values):
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def exactness_check(rule: QuadratureRule, moments) -> float:
    """max_j |sum_l w_l x_l^j - m_j| over j <= min(2k-1, supplied).

    The float nodes and weights are integers over powers of two, dx and den,
    so each sum is exact; an error past the float range reads inf.
    """
    dx = max(x.as_integer_ratio()[1] for x in rule.nodes)
    den = max(w.as_integer_ratio()[1] for w in rule.weights)
    xs, terms = [int(Fraction(x) * dx) for x in rule.nodes], [int(Fraction(w) * den) for w in rule.weights]
    worst = 0.0
    for m in map(Fraction, moments[: 2 * rule.order]):
        try:
            worst = max(worst, abs(sum(terms) * m.denominator - m.numerator * den) / (den * m.denominator))
        except OverflowError:
            return math.inf
        terms, den = [t * x for t, x in zip(terms, xs)], den * dx
    return worst
