"""Shared fixtures: canned measures, weights, families, rational probes and a child-process runner."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import opgb
from opgb import biorth, gram
from opgb.numlin import Matrix, unit_lower_inverse

settings.register_profile("fast", settings(max_examples=25, deadline=None))
settings.load_profile("fast")

ACCEPTANCE_LINES = []

ROOT = Path(__file__).resolve().parents[1]


def run_child(args):
    """Run a child interpreter that imports the same opgb as this process."""
    env = dict(os.environ, PYTHONPATH=str(Path(opgb.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def atoms3():
    return gram.DiscreteMeasure.from_pairs([(-1, 1), (0, 1), (1, 1)])


@pytest.fixture
def atoms6():
    return gram.DiscreteMeasure.from_pairs(
        [(-2, 1), (-1, 2), (0, 1), (1, 3), (2, 1), (3, 2)]
    )


@pytest.fixture
def atoms8():
    return gram.DiscreteMeasure.from_pairs(
        [
            (-3, 1),
            (-2, 2),
            (-1, 1),
            (0, 3),
            (1, 1),
            (2, 2),
            (Fraction(5, 2), 1),
            (4, 1),
        ]
    )


@pytest.fixture
def deriv_measure():
    return gram.DiscreteMeasure(
        (gram.Atom(0, 1, 0), gram.Atom(1, 2, 1), gram.Atom(2, 1, 0))
    )


@pytest.fixture
def fam3(atoms3):
    return biorth.build_families(gram.gram_matrix(atoms3, 3))


@pytest.fixture
def fam6(atoms6):
    return biorth.build_families(gram.gram_matrix(atoms6, 6))


@pytest.fixture
def fam8(atoms8):
    return biorth.build_families(gram.gram_matrix(atoms8, 8))


@pytest.fixture
def hermite():
    return gram.ClassicalWeight("hermite")


@pytest.fixture
def laguerre0():
    return gram.ClassicalWeight("laguerre", alpha=0)


@pytest.fixture
def legendre():
    return gram.ClassicalWeight("jacobi", alpha=0, beta=0)


@pytest.fixture
def bivariate2():
    return gram.BivariateTable(((1, 0), (1, 1)))


def random_rational(rng, lo=-6, hi=6, dens=(1, 2, 3, 5, 7)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def rational_points(seed, count, avoid=()):
    """Deterministic rational probes avoiding the given values."""
    rng = random.Random(seed)
    banned = set(avoid)
    out = []
    while len(out) < count:
        v = random_rational(rng)
        if v not in banned:
            banned.add(v)
            out.append(v)
    return out


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def positive_measures(draw, min_atoms, max_atoms=8):
    """Distinct rational atoms with positive rational weights."""
    qs = draw(st.lists(RATIONALS, min_size=min_atoms, max_size=max_atoms, unique=True))
    ws = draw(st.lists(RATIONALS.filter(lambda w: w > 0), min_size=len(qs), max_size=len(qs)))
    return gram.DiscreteMeasure.from_pairs(zip(qs, ws))


@st.composite
def exact_blocks(draw):
    """An exact quasi-definite block of size 2..8: Hankel from distinct rational
    atoms with positive weights, or a strictly diagonally dominant table."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        return gram.gram_matrix(draw(positive_measures(n)), n)
    rows = draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n))
    return Matrix([[v + (4 * n if i == j else 0) for j, v in enumerate(row)] for i, row in enumerate(rows)])


def random_quasi_definite(rng, n, tries=200):
    """Random small-rational quasi-definite matrix; diagonal boosted to force it."""
    for _ in range(tries):
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
            for _ in range(n)
        ]
        for i in range(n):
            rows[i][i] = rows[i][i] + 7
        m = Matrix(rows)
        if _quasi_definite(m):
            return m
    raise AssertionError("no quasi-definite sample found")


def _quasi_definite(m):
    from opgb.numlin import det

    n = m.shape[0]
    return all(det(m.leading(k)) != 0 for k in range(1, n + 1))


def random_measure(rng, n_atoms):
    """Distinct rational positions, nonzero integer weights, all d = 0."""
    positions = set()
    while len(positions) < n_atoms:
        positions.add(Fraction(rng.randint(-8, 8), rng.choice((1, 2))))
    atoms = []
    for q in sorted(positions):
        w = 0
        while w == 0:
            w = rng.randint(-3, 4)
        atoms.append((q, w))
    return gram.DiscreteMeasure.from_pairs(atoms)


# Dense operator matrices: the labelled oracles of the banded and row-combination routes.


def shift_matrix(n):
    """Lambda: the shift, ones on the superdiagonal. Lambda chi(x) = x chi(x) up to the boundary row."""
    out = Matrix.zeros(n)
    for i in range(n - 1):
        out.rows[i][i + 1] = 1
    return out


def derivative_matrix(n):
    """D with D chi(x) = chi'(x): entry (i, i-1) equal to i."""
    out = Matrix.zeros(n)
    for i in range(1, n):
        out.rows[i][i - 1] = i
    return out


def polynomial_of_operator(coeffs, m):
    """p(M) by Horner for an ascending coefficient list p."""
    n = m.shape[0]
    out = Matrix.zeros(n)
    for c in reversed(coeffs):
        out = out @ m
        for i in range(n):
            out.rows[i][i] = out.rows[i][i] + c
    return out


def matrix_sum(a, b):
    return Matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)])


def dense_spectral_oracle(f, side):
    """Oracle of J: the leading (n-1) x (n-1) block of the dense conjugation S Lambda S^{-1}."""
    s = f.s1 if side == 1 else f.s2
    return (s @ shift_matrix(f.size) @ unit_lower_inverse(s)).leading(f.size - 1)


def dense_w_of_shift(w, m):
    """W(Lambda) M as a dense product, uncut: the oracle of transforms.christoffel_gram
    (M = G) and of transforms.christoffel_connector (M = S_1^{-1})."""
    return polynomial_of_operator(w.coeffs(), shift_matrix(m.shape[0])) @ m


def dense_diff_operator(p, n):
    """Oracle of classical.diff_operator_matrix: D^2 p2(Lambda) + D (A Lambda + B), dense."""
    lam, d = shift_matrix(n), derivative_matrix(n)
    return matrix_sum(d @ d @ polynomial_of_operator([p.c, p.b, p.a], lam),
                      d @ polynomial_of_operator([p.B, p.A], lam))


def second_kind_series(f, z: float):
    """Truncated Laurent series H S_2^{-T} chi^*(z) in floats, an oracle for C_{1,k}.

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
