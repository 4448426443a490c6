"""Scalar conventions.

A scalar is an int or a Fraction: the package computes exactly, and its
zero tests are == 0. A float handed to the library stands for its exact
binary value; canon turns it into that Fraction, so a float Gram matrix
factors as the matrix of the rationals its entries are: an exact value
record converts its fields at construction (record.Record), a public
entry a bare point, matrix or sequence once per call. Only Gauss rules
(quad.py) compute in floats; elsewhere rounding to float happens once, at
output: where the CLI writes a float-mode document or a plot-data sample.

Spec values parse exactly: "3", "-1/2", "0.25" all become Fractions (the
decimal form is exact, not binary-rounded), and a JSON number parses from
its shortest decimal repr, so 0.25 and "1/4" give the same measure.
Serialization writes lowest-terms "p/q", integers without the "/1".
Results leave the library through canon, so a result's repr does not
depend on its route.
"""

from fractions import Fraction

from .errors import UnsupportedMeasure


def parse_scalar(text):
    """Parse a spec string or JSON number into an exact scalar; a JSON boolean is no number."""
    if isinstance(text, bool):
        raise TypeError(f"{text!r} is not a number")
    if isinstance(text, (int, Fraction)):
        return canon(Fraction(text))
    return canon(Fraction(str(text).strip()))


def canon(x):
    """x in canonical exact form: a float as its exact Fraction, an integral Fraction as an int.

    A nan or infinite float has no exact value: UnsupportedMeasure."""
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        try:
            x = Fraction(x)
        except (ValueError, OverflowError):
            raise UnsupportedMeasure(f"{x} is not a finite number") from None
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def format_scalar(x) -> str:
    """Render an exact scalar for JSON output as "p/q" in lowest terms."""
    q = Fraction(x)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
