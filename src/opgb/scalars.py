"""Scalar conventions.

A scalar is int, Fraction, or float. Arithmetic mode is inferred from type:
anything that is not a float is exact. Mixing a float into an exact
computation silently demotes it to float mode, which is intended.

Strings from measure specs parse exactly: "3", "-1/2", "0.25" all become
Fractions (the decimal form is exact, not binary-rounded). Serialization
writes lowest-terms "p/q", integers without the "/1". Results leave the
library through canon, so a result's repr does not depend on its route.
"""

from fractions import Fraction

# Float mode: a pivot or denominator below this in magnitude counts as zero.
PIVOT_EPS = 1e-10

Scalar = int | Fraction | float


def parse_scalar(text):
    """Parse a spec string (or passthrough number) into an exact scalar."""
    if isinstance(text, (int, Fraction)):
        return canon(Fraction(text))
    if isinstance(text, float):
        return text
    return canon(Fraction(str(text).strip()))


def canon(x):
    """An integral Fraction as an int; every other scalar unchanged."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def format_scalar(x) -> str:
    """Render a scalar for JSON output: "p/q" in lowest terms, or repr for floats."""
    if isinstance(x, float):
        return repr(x)
    q = Fraction(x)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_zero(x, eps=None) -> bool:
    """Zero test honoring the mode: exact equality, or |x| < eps for floats."""
    if isinstance(x, float):
        return abs(x) < (PIVOT_EPS if eps is None else eps)
    return x == 0
