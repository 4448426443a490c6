"""Dense univariate polynomials as ascending coefficient lists.

[c0, c1, ..., cn] means c0 + c1 x + ... + cn x^n. Lists may carry trailing
zeros; functions that care call poly_trim first. Coefficients follow the
scalar conventions of scalars.py: exact in, exact out.
"""

from fractions import Fraction

from .scalars import canon


def exact_div(a, b):
    """a / b as an exact canonical scalar."""
    return canon(Fraction(a) / Fraction(b))


def poly_trim(p):
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def poly_sub(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)]


def poly_scale(c, p):
    return [c * a for a in p]


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def poly_divmod_linear(p, a):
    """Synthetic division by (x - a): returns (quotient, remainder)."""
    q = [0] * max(len(p) - 1, 1)
    acc = 0
    for i in range(len(p) - 1, 0, -1):
        acc = p[i] + a * acc
        q[i - 1] = acc
    rem = p[0] + a * acc
    return q, rem


def poly_jet(p, r, order):
    """First `order` Taylor coefficients of p at r: [p(r), p'(r)/1!, ...].

    Computed by repeated synthetic division, so exact inputs give exact jets.
    """
    out = []
    cur = list(p)
    for _ in range(order):
        cur, rem = poly_divmod_linear(cur, r)
        out.append(rem)
    return out
