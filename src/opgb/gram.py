"""Measures and the Gram matrices of their moment pairings.

Three sources feed the factorization machinery:

* DiscreteMeasure: finitely many atoms (q, w, d). An atom with derivative
  order d pairs with x^j as w * j!/(j-d)! * q^(j-d), i.e. w times the d-th
  derivative of x^j at q; d = 0 is an ordinary point mass. Sign factors that
  other conventions attach to derivative masses are assumed folded into w.
* ClassicalWeight: Hermite, Laguerre, or Jacobi weight with rational
  parameters. Moments are normalized to m_0 = 1 so they stay rational; the
  physical zeroth moment (sqrt(pi), Gamma(alpha+1), the Jacobi beta-function
  constant) is float metadata via mass().
* BivariateTable: an explicit rational entry table G[k][l], the faithful
  finite model of a general (possibly non-Hankel) bivariate functional.

Measure sources produce Hankel matrices G[i][j] = m[i+j]; tables pass
through verbatim. Cauchy-transformed moments c_j(a) = <mu, x^j/(a-x)> feed
the second-kind functions and the Geronimus transform.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .classical import FAMILIES, classical_moments, pearson_data
from .errors import InsufficientTruncation, PoleAtAtom, UnsupportedMeasure
from .numlin import Matrix, hankel_moments, is_hankel
from .poly import exact_div
from .scalars import canon, parse_scalar


@dataclass(frozen=True)
class Atom:
    q: Fraction | int
    w: Fraction | int
    d: int = 0


@dataclass(frozen=True)
class DiscreteMeasure:
    atoms: tuple

    @classmethod
    def from_pairs(cls, pairs):
        return cls(tuple(Atom(*p) for p in pairs))

    def support(self):
        return tuple(a.q for a in self.atoms)

    def max_derivative_order(self) -> int:
        return max((a.d for a in self.atoms), default=0)


@dataclass(frozen=True)
class ClassicalWeight:
    family: str
    alpha: Fraction | int = 0
    beta: Fraction | int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedMeasure(f"unknown classical family {self.family!r}")
        if self.family in ("laguerre", "jacobi") and not self.alpha > -1:
            raise UnsupportedMeasure("alpha must exceed -1")
        if self.family == "jacobi" and not self.beta > -1:
            raise UnsupportedMeasure("beta must exceed -1")

    def mass(self) -> float:
        """Physical zeroth moment of the weight (float metadata)."""
        if self.family == "hermite":
            return math.sqrt(math.pi)
        if self.family == "laguerre":
            return math.gamma(float(self.alpha) + 1)
        al, be = float(self.alpha), float(self.beta)
        return (
            2 ** (al + be + 1)
            * math.gamma(al + 1)
            * math.gamma(be + 1)
            / math.gamma(al + be + 2)
        )


def raise_parameters(w: ClassicalWeight) -> ClassicalWeight:
    """The weight with every parameter raised by one (u multiplied by p2)."""
    if w.family == "hermite":
        return w
    if w.family == "laguerre":
        return ClassicalWeight("laguerre", w.alpha + 1)
    return ClassicalWeight("jacobi", w.alpha + 1, w.beta + 1)


@dataclass(frozen=True)
class BivariateTable:
    entries: tuple

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def hankel(self) -> bool:
        return is_hankel(Matrix(self.entries))


def moments_discrete(m: DiscreteMeasure, j_max: int):
    """m_0..m_{j_max}, m_j the sum over atoms of w * j!/(j-d)! * q^(j-d) (zero for j < d).

    With D the lcm of the atoms' q denominators and v that of their w
    denominators, every atom term of m_j is an integer over v D^j, so each
    moment is an integer sum and one reduction. A float q or w counts as
    its exact binary value (scalars.canon).
    """
    atoms = [(canon(a.q), canon(a.w), a.d) for a in m.atoms]
    dq = math.lcm(*(q.denominator for q, _, _ in atoms))
    v = math.lcm(*(w.denominator for _, w, _ in atoms))
    # Per atom [c, q D, d], with c = w v D^d (q D)^(j-d) at the current j >= d.
    terms = [[w.numerator * (v // w.denominator) * dq**d, q.numerator * (dq // q.denominator), d]
             for q, w, d in atoms]
    out, scale = [], v
    for j in range(j_max + 1):
        total = 0
        for term in terms:
            c, qd, d = term
            if j >= d:
                total += math.perm(j, d) * c
                term[0] = c * qd
        out.append(canon(Fraction(total, scale)))
        scale *= dq
    return out


def moments_classical(w: ClassicalWeight, j_max: int):
    return classical_moments(pearson_data(w), j_max)


def moments(source, j_max: int):
    """m_0..m_{j_max} of a measure, or of a table whose leading block holding them is Hankel."""
    if isinstance(source, DiscreteMeasure):
        return moments_discrete(source, j_max)
    if isinstance(source, ClassicalWeight):
        return moments_classical(source, j_max)
    if isinstance(source, BivariateTable):
        block = gram_matrix(source, (j_max + 3) // 2)
        if is_hankel(block):
            return hankel_moments(block)[: j_max + 1]
    raise UnsupportedMeasure(f"no moment sequence for {type(source).__name__}")


def gram_matrix(source, n: int) -> Matrix:
    """n x n Gram matrix: Hankel from moments, or the verbatim table."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(source, BivariateTable):
        if source.size < n:
            raise InsufficientTruncation(f"table holds {source.size} rows, {n} requested")
        return Matrix([row[:n] for row in source.entries[:n]])
    ms = moments(source, 2 * n - 2)
    return Matrix.from_function(n, n, lambda i, j: ms[i + j])


def cauchy_moments(m: DiscreteMeasure, a, j_max: int):
    """c_j(a) = <mu, x^j/(a-x)> for j = 0..j_max, exactly.

    c_0 is a direct atom sum; higher ones follow the recurrence
    c_j = a c_{j-1} - m_{j-1}, which is the pairing of
    x^j/(a-x) = a x^{j-1}/(a-x) - x^{j-1}. The point is taken exactly.
    """
    a = canon(a)
    c0 = 0
    for atom in m.atoms:
        if atom.q == a:
            raise PoleAtAtom(f"Cauchy point {a} sits on an atom")
        c0 = c0 + exact_div(atom.w * math.factorial(atom.d), (a - atom.q) ** (atom.d + 1))
    return cauchy_from_c0(moments_discrete(m, max(j_max - 1, 0)), a, c0, j_max)


def cauchy_from_c0(ms, a, c0, j_max: int):
    """Run the Cauchy-moment recurrence from a given c_0 and plain moments.

    cauchy_moments ends here. A continuous measure's c_0(a) has no rational
    closed form, so its caller supplies a rational value for it and the
    exact recurrence produces the rest (biorth.second_kind_from_c0 needs
    c_0 alone).
    """
    out = [canon(c0)]
    for j in range(1, j_max + 1):
        out.append(a * out[j - 1] - ms[j - 1])
    return out


def parse_measure_spec(obj) -> object:
    """Measure from a decoded JSON spec; raises UnsupportedMeasure on any defect."""
    if not isinstance(obj, dict):
        raise UnsupportedMeasure("measure spec must be a JSON object")
    kind = obj.get("type")
    try:
        if kind == "discrete":
            atoms = obj["atoms"]
            if not isinstance(atoms, list) or not atoms:
                raise UnsupportedMeasure("discrete spec needs a non-empty atoms list")
            parsed = []
            for entry in atoms:
                d = entry.get("d", 0)
                if type(d) is not int or d < 0:  # a JSON true is no derivative order
                    raise UnsupportedMeasure("derivative order must be a non-negative integer")
                parsed.append(Atom(parse_scalar(entry["q"]), parse_scalar(entry["w"]), d))
            return DiscreteMeasure(tuple(parsed))
        if kind == "classical":
            return ClassicalWeight(
                obj["family"],
                parse_scalar(obj.get("alpha", 0)),
                parse_scalar(obj.get("beta", 0)),
            )
        if kind == "bivariate":
            entries = obj["entries"]
            size = len(entries)
            if size == 0 or any(len(row) != size for row in entries):
                raise UnsupportedMeasure("bivariate entries must form a square table")
            return BivariateTable(tuple(tuple(parse_scalar(v) for v in row) for row in entries))
    except UnsupportedMeasure:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise UnsupportedMeasure(f"malformed measure spec: {exc}") from exc
    raise UnsupportedMeasure(f"unknown measure type {kind!r}")
