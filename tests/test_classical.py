"""Pearson data, closed-form subdiagonals and eigenvalues, operator checks."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from opgb import biorth, classical, gram
from opgb.classical import PearsonData
from opgb.errors import DegenerateDenominator, DegenerateRecurrence, UnsupportedMeasure
from opgb.gram import ClassicalWeight

from conftest import dense_diff_operator

F = Fraction


def pochhammer(x, n):
    out = 1
    for i in range(n):
        out *= x + i
    return out


class TestPearsonData:
    def test_hermite(self, hermite):
        p = classical.pearson_data(hermite)
        assert (p.a, p.b, p.c, p.A, p.B) == (0, 0, 1, -2, 0)

    def test_laguerre_half(self):
        p = classical.pearson_data(ClassicalWeight("laguerre", F(1, 2)))
        assert p.A == -1
        assert p.B == F(3, 2)

    def test_jacobi_symmetric(self):
        p = classical.pearson_data(ClassicalWeight("jacobi", F(1, 2), F(1, 2)))
        assert p.B == 0
        assert p.A == -3

    def test_jacobi_general(self):
        p = classical.pearson_data(ClassicalWeight("jacobi", 1, 0))
        assert (p.a, p.b, p.c, p.A, p.B) == (-1, 0, 1, -3, -1)

    def test_unknown_family(self):
        class Fake:
            family = "bessel"

        with pytest.raises(UnsupportedMeasure):
            classical.pearson_data(Fake())


class TestSubdiagonal:
    def test_hermite_vanishes(self, hermite):
        p = classical.pearson_data(hermite)
        assert all(classical.classical_subdiagonal(p, n) == 0 for n in range(8))

    def test_laguerre_zero(self, laguerre0):
        p = classical.pearson_data(laguerre0)
        assert classical.classical_subdiagonal(p, 0) == -1

    def test_laguerre_closed_form(self):
        for alpha in (0, F(1, 2), 1):
            p = classical.pearson_data(ClassicalWeight("laguerre", alpha))
            for n in range(6):
                assert classical.classical_subdiagonal(p, n) == -(n + 1) * (n + 1 + alpha)

    def test_jacobi_one_zero(self):
        p = classical.pearson_data(ClassicalWeight("jacobi", 1, 0))
        assert classical.classical_subdiagonal(p, 0) == F(1, 3)

    def test_jacobi_closed_form(self):
        for alpha, beta in ((0, 0), (1, 0), (F(1, 2), F(1, 2))):
            p = classical.pearson_data(ClassicalWeight("jacobi", alpha, beta))
            for n in range(6):
                want = F((n + 1) * (alpha - beta), 1) / ((alpha + beta + 2) + 2 * n)
                assert classical.classical_subdiagonal(p, n) == want

    def test_degenerate_denominator(self):
        p = PearsonData(1, 0, 0, -2, 1)
        with pytest.raises(DegenerateDenominator):
            classical.classical_subdiagonal(p, 1)

    def test_matches_factorization(self):
        weights = [
            ClassicalWeight("hermite"),
            ClassicalWeight("laguerre", 0),
            ClassicalWeight("laguerre", F(1, 2)),
            ClassicalWeight("jacobi", 0, 0),
            ClassicalWeight("jacobi", 1, 0),
        ]
        for w in weights:
            p = classical.pearson_data(w)
            f = biorth.family_from_measure(w, 11)
            for n in range(10):
                assert f.s1.rows[n + 1][n] == classical.classical_subdiagonal(p, n)


class TestEigenvalue:
    def test_hermite(self, hermite):
        p = classical.pearson_data(hermite)
        assert classical.classical_eigenvalue(p, 3) == -6

    def test_laguerre(self, laguerre0):
        p = classical.pearson_data(laguerre0)
        assert classical.classical_eigenvalue(p, 3) == -3

    def test_degree_zero(self):
        for w in (ClassicalWeight("hermite"), ClassicalWeight("jacobi", 1, 0)):
            assert classical.classical_eigenvalue(classical.pearson_data(w), 0) == 0


class TestMomentRecurrence:
    def test_matches_direct(self, hermite, laguerre0, legendre):
        for w in (hermite, laguerre0, legendre):
            p = classical.pearson_data(w)
            assert classical.classical_moments(p, 6) == list(gram.moments_classical(w, 6))

    def test_degenerate_recurrence(self):
        p = PearsonData(1, 0, 0, -2, 1)
        with pytest.raises(DegenerateRecurrence):
            classical.classical_moments(p, 3)


PARAMETERS = st.integers(0, 3) | st.fractions(min_value=-1, max_value=3, max_denominator=6).filter(
    lambda x: x > -1)


class TestDiffOperator:
    @given(st.sampled_from(classical.FAMILIES), PARAMETERS, PARAMETERS, st.integers(0, 12))
    @example("jacobi", F(1, 2), F(1, 2), 6)
    @example("jacobi", F(1, 2), F(-1, 3), 12)
    def test_bands_match_dense_oracle(self, family, alpha, beta, n):
        p = classical.pearson_data(ClassicalWeight(family, alpha, beta))
        got = classical.diff_operator_matrix(p, n)
        # repr as well as value: the bands leave the dense product's ints and Fractions.
        assert repr(got) == repr(dense_diff_operator(p, n))

    def test_hermite_entries(self, hermite):
        t = classical.diff_operator_matrix(classical.pearson_data(hermite), 4)
        assert t.rows[1][1] == -2
        assert all(v == 0 for v in t.rows[0])

    def test_laguerre_entry(self, laguerre0):
        t = classical.diff_operator_matrix(classical.pearson_data(laguerre0), 4)
        assert t.rows[1][1] == -1

    def test_symmetry_with_gram(self, hermite, laguerre0, legendre):
        for w in (hermite, laguerre0, legendre):
            n = 7
            t = classical.diff_operator_matrix(classical.pearson_data(w), n)
            g = gram.gram_matrix(w, n)
            assert (t @ g).rows == (g @ t.transpose()).rows

    def test_diagonalization(self, hermite, laguerre0, legendre):
        from opgb.numlin import Matrix, solve

        for w in (hermite, laguerre0, legendre):
            n = 7
            p = classical.pearson_data(w)
            f = biorth.family_from_measure(w, n)
            t = classical.diff_operator_matrix(p, n)
            conj = f.s1 @ t @ solve(f.s1, Matrix.identity(n))
            for i in range(n):
                for j in range(n):
                    want = classical.classical_eigenvalue(p, i) if i == j else 0
                    assert conj.rows[i][j] == want


class TestNormRatios:
    def test_hermite_explicit(self, hermite):
        f = biorth.family_from_measure(hermite, 13)
        for n in range(13):
            assert f.h[n] == F(factorial(n), 2**n) * f.h[0]

    def test_laguerre_explicit(self):
        for alpha in (0, F(1, 2), 1):
            f = biorth.family_from_measure(ClassicalWeight("laguerre", alpha), 11)
            for n in range(11):
                assert f.h[n] == factorial(n) * pochhammer(alpha + 1, n) * f.h[0]

    def test_legendre_first_ratio(self, legendre):
        f = biorth.family_from_measure(legendre, 2)
        assert f.h[1] == F(1, 3) * f.h[0]

    def test_raised_family_relation(self, hermite, laguerre0, legendre):
        for w in (hermite, laguerre0, legendre, ClassicalWeight("jacobi", 1, 0)):
            p = classical.pearson_data(w)
            ms = gram.moments_classical(w, 2)
            kappa = p.a * ms[2] + p.b * ms[1] + p.c
            f = biorth.family_from_measure(w, 8)
            f_up = biorth.family_from_measure(gram.raise_parameters(w), 8)
            for n in range(1, 8):
                lhs = f.h[n] * (p.A + (n - 1) * p.a)
                assert lhs == -n * kappa * f_up.h[n - 1]
