"""Christoffel, Geronimus, and linear-spectral transformations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from opgb import biorth, gram, transforms
from opgb.errors import (
    InsufficientTruncation,
    NotCoprime,
    NotHankel,
    NotQuasiDefinite,
    PoleAtAtom,
    SingularJetMatrix,
    UnsupportedMeasure,
    ZeroAtRoot,
    ZeroDenominator,
)
from opgb.numlin import Matrix, unit_lower_inverse
from opgb.poly import poly_eval, poly_mul, poly_scale, poly_sub, poly_trim
from opgb.transforms import GeronimusFreeData, PolyPerturbation

from conftest import RATIONALS, ROOT, dense_w_of_shift, rational_points, run_child

F = Fraction


def hat_family(measure, w, size):
    g = gram.gram_matrix(measure, size + w.degree)
    return biorth.build_families(transforms.christoffel_gram(g, w))


def check_family(measure, a, xi, size):
    g = gram.gram_matrix(measure, size)
    col = transforms.geronimus_first_column(measure, a, xi, size)
    return biorth.build_families(transforms.geronimus_gram(g, a, col))


@st.composite
def rational_tables(draw):
    """A rational n x n table, n <= 8: Hankel or not; quasi-definiteness is not needed."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        ms = draw(st.lists(RATIONALS, min_size=2 * n - 1, max_size=2 * n - 1))
        return Matrix.from_function(n, n, lambda i, j: ms[i + j])
    return Matrix(draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n)))


@st.composite
def perturbations(draw):
    """Monic W of degree <= 3; roots drawn from a small pool as well, so they repeat."""
    roots = sorted(draw(st.lists(st.sampled_from([0, -2, F(1, 2)]) | RATIONALS, max_size=3)))
    return PolyPerturbation(tuple((r, len(list(run))) for r, run in itertools.groupby(roots)))


class TestChristoffelGram:
    @given(rational_tables(), perturbations())
    @example(Matrix([[1, 2], [2, 5]]), PolyPerturbation(((1, 2),)))
    def test_matches_dense_oracle(self, g, w):
        n = g.shape[0]
        if n - w.degree < 1:
            with pytest.raises(InsufficientTruncation):
                transforms.christoffel_gram(g, w)
            return
        got = transforms.christoffel_gram(g, w)
        want = dense_w_of_shift(w, g).leading(n - w.degree)
        assert got == want
        assert repr(got) == repr(want.canon())

    def test_linear_entry(self, atoms3):
        g = gram.gram_matrix(atoms3, 3)
        out = transforms.christoffel_gram(g, PolyPerturbation.simple(2))
        assert out.rows[0][0] == -6

    def test_quadratic_entry(self, atoms3):
        g = gram.gram_matrix(atoms3, 3)
        out = transforms.christoffel_gram(g, PolyPerturbation(((2, 2),)))
        assert out.rows[0][0] == 14

    def test_trivial_perturbation(self, atoms3):
        g = gram.gram_matrix(atoms3, 3)
        out = transforms.christoffel_gram(g, PolyPerturbation(()))
        assert out.rows == g.rows

    def test_band_consumption(self, atoms3):
        g = gram.gram_matrix(atoms3, 2)
        with pytest.raises(InsufficientTruncation):
            transforms.christoffel_gram(g, PolyPerturbation(((2, 2),)))


class TestChristoffelDeg1:
    def test_frozen_values(self, fam3):
        _, _, h0 = transforms.christoffel_polys_deg1(fam3, 2, 0)
        assert h0 == -6
        _, _, h1 = transforms.christoffel_polys_deg1(fam3, 2, 1)
        assert h1 == F(-10, 3)
        assert h1 / fam3.h[1] == F(-5, 3)

    def test_matches_factorization(self, atoms6):
        a = F(7, 2)
        f = biorth.build_families(gram.gram_matrix(atoms6, 6))
        fhat = hat_family(atoms6, PolyPerturbation.simple(a), 5)
        for n in range(5):
            p1, p2, h = transforms.christoffel_polys_deg1(f, a, n)
            assert poly_trim(p1) == poly_trim(fhat.poly1(n))
            assert poly_trim(p2) == poly_trim(fhat.poly2(n))
            assert h == fhat.h[n]

    def test_hankel_two_form(self, fam6):
        for a in (F(7, 2), -4, F(22, 7)):
            for n in range(4):
                p1, p2, _ = transforms.christoffel_polys_deg1(fam6, a, n)
                assert poly_trim(p1) == poly_trim(p2)

    def test_zero_at_root(self, fam3):
        with pytest.raises(ZeroAtRoot):
            transforms.christoffel_polys_deg1(fam3, 0, 1)

    def test_truncation_guard(self, fam3):
        with pytest.raises(InsufficientTruncation):
            transforms.christoffel_polys_deg1(fam3, 2, 2)


class TestJet:
    def test_double_root(self):
        assert transforms.jet([0, 0, 1], PolyPerturbation(((1, 2),))) == [1, 2]

    def test_constant(self):
        assert transforms.jet([1], PolyPerturbation(((5, 3),))) == [1, 0, 0]

    def test_two_simple_roots(self):
        assert transforms.jet([0, 0, 0, 1], PolyPerturbation.simple(0, 1)) == [0, 1]


class TestChristoffelGeneral:
    def test_reduces_to_deg1(self, fam6):
        a = F(9, 2)
        for n in range(4):
            p1a, p2a, ha = transforms.christoffel_polys_deg1(fam6, a, n)
            p1b, hb, p2b = transforms.christoffel_polys_general(
                fam6, PolyPerturbation.simple(a), n
            )
            assert poly_trim(p1a) == poly_trim(p1b)
            assert poly_trim(p2a) == poly_trim(p2b)
            assert ha == hb

    @pytest.mark.parametrize(
        "w",
        [
            PolyPerturbation.simple(F(7, 2), -3),
            PolyPerturbation(((F(7, 2), 2),)),
            PolyPerturbation(((4, 2), (-3, 1))),
            # Degree 0: the identity transform.
            PolyPerturbation(()),
        ],
    )
    def test_matches_factorization(self, atoms6, w):
        f = biorth.build_families(gram.gram_matrix(atoms6, 6))
        fhat = hat_family(atoms6, w, 6 - w.degree)
        for n in range(6 - w.degree):
            p1, h, p2 = transforms.christoffel_polys_general(f, w, n)
            assert poly_trim(p1) == poly_trim(fhat.poly1(n))
            assert poly_trim(p2) == poly_trim(fhat.poly2(n))
            assert h == fhat.h[n]

    def test_singular_jet_matrix(self):
        ms = [2, 1, 2, 1, 6, 1, 30]
        g = Matrix.from_function(4, 4, lambda i, j: ms[i + j])
        f = biorth.build_families(g)
        with pytest.raises(SingularJetMatrix):
            transforms.christoffel_polys_general(f, PolyPerturbation.simple(1, -1), 1)

    def test_division_exact(self, fam8):
        w = PolyPerturbation(((F(9, 2), 2),))
        p1, _, _ = transforms.christoffel_polys_general(fam8, w, 2)
        assert len(poly_trim(p1)) == 3
        assert p1[-1] == 1


class TestChristoffelConnector:
    def test_matches_dense_oracle(self, atoms6, fam6):
        w = PolyPerturbation(((F(7, 2), 2), (-3, 1)))
        fhat = hat_family(atoms6, w, 3)
        want = fhat.s1 @ Matrix(dense_w_of_shift(w, unit_lower_inverse(fam6.s1)).rows[:3])
        omega = transforms.christoffel_connector(fam6, fhat, w)
        assert repr(omega) == repr(want.canon())

    def test_frozen_entries(self, atoms3, fam3):
        w = PolyPerturbation.simple(2)
        fhat = hat_family(atoms3, w, 2)
        omega = transforms.christoffel_connector(fam3, fhat, w)
        assert omega.rows[0][:2] == [-2, 1]
        assert omega.rows[1] == [0, F(-5, 3), 1]

    def test_faces_agree(self, atoms6, fam6):
        w = PolyPerturbation.simple(F(7, 2), -3)
        fhat = hat_family(atoms6, w, 4)
        omega = transforms.christoffel_connector(fam6, fhat, w)
        alt = transforms.christoffel_connector_alt(fam6, fhat)
        for i in range(4):
            for j in range(4):
                assert omega.rows[i][j] == alt.rows[i][j]

    def test_band_structure(self, atoms6, fam6):
        w = PolyPerturbation(((F(7, 2), 2),))
        fhat = hat_family(atoms6, w, 4)
        omega = transforms.christoffel_connector(fam6, fhat, w)
        for i in range(4):
            for j in range(6):
                if j < i or j > i + 2:
                    assert omega.rows[i][j] == 0
            assert omega.rows[i][i + 2] == 1

    def test_connects_polynomials(self, atoms6, fam6):
        w = PolyPerturbation.simple(F(7, 2), -3)
        fhat = hat_family(atoms6, w, 4)
        omega = transforms.christoffel_connector(fam6, fhat, w)
        from opgb.poly import poly_add

        for i in range(4):
            lhs = [0]
            for j in range(6):
                if omega.rows[i][j] != 0:
                    lhs = poly_add(lhs, poly_scale(omega.rows[i][j], fam6.poly1(j)))
            rhs = poly_mul(w.coeffs(), fhat.poly1(i))
            assert poly_trim(lhs) == poly_trim(rhs)


class TestChristoffelKernelConnection:
    def test_identity(self, atoms6, fam6):
        a = F(7, 2)
        fhat = hat_family(atoms6, PolyPerturbation.simple(a), 5)
        n = 3
        _, p2, h = transforms.christoffel_polys_deg1(fam6, a, n)
        for x, y in zip(rational_points(41, 6), rational_points(42, 6)):
            lhs = (x - a) * biorth.cd_kernel(fhat, n, x, y) - poly_eval(
                p2, y
            ) * poly_eval(fam6.poly1(n + 1), x) / F(h, 1)
            assert lhs == biorth.cd_kernel(fam6, n, x, y)


class TestGeronimusGram:
    def test_frozen_entries(self, atoms3):
        g = gram.gram_matrix(atoms3, 3)
        col = transforms.geronimus_first_column(atoms3, 2, 0, 3)
        out = transforms.geronimus_gram(g, 2, col)
        assert out.rows[0][0] == F(-11, 6)
        assert out.rows[0][1] == F(-2, 3)

    def test_added_mass(self, atoms3):
        col = transforms.geronimus_first_column(atoms3, 2, 1, 3)
        assert col[0] == F(-11, 6) + 1

    def test_defining_equation(self, atoms6):
        a = F(9, 2)
        g = gram.gram_matrix(atoms6, 5)
        col = transforms.geronimus_first_column(atoms6, a, F(1, 3), 5)
        out = transforms.geronimus_gram(g, a, col)
        for i in range(5):
            for j in range(4):
                assert out.rows[i][j + 1] - a * out.rows[i][j] == g.rows[i][j]

    def test_matches_measure_route(self, atoms6):
        a = F(9, 2)
        xi = F(1, 3)
        direct = check_family(atoms6, a, xi, 5)
        mcheck = transforms.geronimus_measure(atoms6, a, xi)
        via_measure = biorth.build_families(gram.gram_matrix(mcheck, 5))
        assert direct.gram.rows == via_measure.gram.rows


class TestGeronimusPolys:
    def test_degree_zero(self, atoms3, fam3):
        c1 = biorth.second_kind_values(fam3, atoms3, 2)
        xp = transforms.xi_pairing_single_mass(fam3, 2, 0)
        _, h0, _ = transforms.geronimus_polys_deg1(fam3, c1, xp, 0)
        assert h0 == F(-11, 6)

    @pytest.mark.parametrize("xi", [0, 1, F(-1, 2)])
    def test_matches_factorization(self, atoms6, xi):
        a = F(9, 2)
        f = biorth.build_families(gram.gram_matrix(atoms6, 6))
        fcheck = check_family(atoms6, a, xi, 6)
        c1 = biorth.second_kind_values(f, atoms6, a)
        xp = transforms.xi_pairing_single_mass(f, a, xi)
        for n in range(6):
            p1, h, p2 = transforms.geronimus_polys_deg1(f, c1, xp, n)
            assert poly_trim(p1) == poly_trim(fcheck.poly1(n))
            assert poly_trim(p2) == poly_trim(fcheck.poly2(n))
            assert h == fcheck.h[n]

    def test_zero_denominator(self, atoms3, fam3):
        c1 = biorth.second_kind_values(fam3, atoms3, 2)
        xp = transforms.xi_pairing_single_mass(fam3, 2, F(11, 6))
        with pytest.raises(ZeroDenominator):
            transforms.geronimus_polys_deg1(fam3, c1, xp, 1)


class TestGeronimusConnector:
    def test_band_and_ratio(self, atoms6):
        a = F(9, 2)
        xi = F(1, 3)
        f = biorth.build_families(gram.gram_matrix(atoms6, 6))
        fcheck = check_family(atoms6, a, xi, 6)
        omega = transforms.geronimus_connector(f, fcheck)
        c1 = biorth.second_kind_values(f, atoms6, a)
        xp = transforms.xi_pairing_single_mass(f, a, xi)
        d = [c1.values1[k] - xp[k] for k in range(6)]
        for i in range(6):
            assert omega.rows[i][i] == 1
            for j in range(6):
                if j not in (i, i - 1):
                    assert omega.rows[i][j] == 0
            if i >= 1:
                assert omega.rows[i][i - 1] == -d[i] / d[i - 1]

    def test_second_kind_connection(self, atoms6):
        a = F(9, 2)
        xi = 0
        f = biorth.build_families(gram.gram_matrix(atoms6, 6))
        fcheck = check_family(atoms6, a, xi, 6)
        mcheck = transforms.geronimus_measure(atoms6, a, xi)
        omega = transforms.geronimus_connector(f, fcheck)
        h0 = fcheck.h[0]
        for x in (F(11, 2), -6, F(37, 7)):
            cv = biorth.second_kind_values(f, atoms6, x).values1
            cchk = biorth.second_kind_values(fcheck, mcheck, x).values1
            for k in range(6):
                lhs = (x - a) * cchk[k] - (h0 if k == 0 else 0)
                rhs = sum(omega.rows[k][j] * cv[j] for j in range(6))
                assert lhs == rhs

    def test_kernel_connection(self, atoms6):
        a = F(9, 2)
        xi = F(1, 3)
        f = biorth.build_families(gram.gram_matrix(atoms6, 6))
        fcheck = check_family(atoms6, a, xi, 6)
        omega = transforms.geronimus_connector(f, fcheck)
        n = 3
        c1 = biorth.second_kind_values(f, atoms6, a)
        xp = transforms.xi_pairing_single_mass(f, a, xi)
        _, h, p2 = transforms.geronimus_polys_deg1(f, c1, xp, n)
        for x, y in zip(rational_points(43, 6), rational_points(44, 6)):
            lhs = biorth.cd_kernel(fcheck, n - 1, x, y)
            rhs = (y - a) * biorth.cd_kernel(f, n - 1, x, y) - poly_eval(
                p2, y
            ) / F(h, 1) * omega.rows[n][n - 1] * poly_eval(f.poly1(n - 1), x)
            assert lhs == rhs


class TestMeasureArithmetic:
    def test_multiply_moments(self, atoms6):
        out = transforms.multiply_measure_by_linear(atoms6, 3)
        ms = gram.moments_discrete(atoms6, 5)
        got = gram.moments_discrete(out, 4)
        for j in range(5):
            assert got[j] == ms[j + 1] - 3 * ms[j]

    def test_multiply_derivative_atom(self, deriv_measure):
        out = transforms.multiply_measure_by_linear(deriv_measure, 1)
        ms = gram.moments_discrete(deriv_measure, 5)
        got = gram.moments_discrete(out, 4)
        for j in range(5):
            assert got[j] == ms[j + 1] - ms[j]

    def test_divide_moments(self, atoms6):
        q = F(9, 2)
        out = transforms.divide_measure_by_linear(atoms6, q)
        c = gram.cauchy_moments(atoms6, q, 4)
        got = gram.moments_discrete(out, 4)
        for j in range(5):
            assert got[j] == -c[j]

    def test_divide_then_multiply_roundtrip(self, deriv_measure):
        q = F(9, 2)
        there = transforms.divide_measure_by_linear(deriv_measure, q)
        back = transforms.multiply_measure_by_linear(there, q)
        assert gram.moments_discrete(back, 6) == gram.moments_discrete(deriv_measure, 6)

    def test_divide_pole(self, atoms3):
        with pytest.raises(PoleAtAtom):
            transforms.divide_measure_by_linear(atoms3, 1)

    def test_geronimus_measure_moments(self, atoms6):
        q, xi = F(9, 2), F(2, 5)
        out = transforms.geronimus_measure(atoms6, q, xi)
        c = gram.cauchy_moments(atoms6, q, 4)
        got = gram.moments_discrete(out, 4)
        for j in range(5):
            assert got[j] == -c[j] + xi * q**j

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-3, 3).filter(lambda v: v != 0)),
            min_size=2,
            max_size=5,
            unique_by=lambda t: t[0],
        ),
        st.integers(-9, 9).map(lambda v: F(2 * v + 1, 2)),
    )
    def test_multiply_divide_roundtrip_random(self, pairs, q):
        m = gram.DiscreteMeasure.from_pairs(pairs)
        back = transforms.multiply_measure_by_linear(
            transforms.divide_measure_by_linear(m, q), q
        )
        assert gram.moments_discrete(back, 6) == gram.moments_discrete(m, 6)


class TestLinearSpectral:
    def test_single_pair(self, atoms3, fam3):
        wc = PolyPerturbation.simple(3)
        wg = PolyPerturbation.simple(2)
        free = GeronimusFreeData.for_measure(atoms3, wg, [0])
        res = transforms.linear_spectral(fam3, wc, wg, free, 2)
        direct = transforms.multiply_measure(transforms.geronimus_measure(atoms3, 2, 0), wc)
        g = gram.gram_matrix(direct, 2)
        assert res.family.gram.rows == g.rows
        assert res.family.h == biorth.build_families(g).h

    def test_two_roots(self, atoms6, fam6):
        wc = PolyPerturbation.simple(F(7, 2))
        wg = PolyPerturbation.simple(F(9, 2), -4)
        free = GeronimusFreeData.for_measure(atoms6, wg, [F(1, 3), 0])
        res = transforms.linear_spectral(fam6, wc, wg, free, 3)
        step1 = transforms.geronimus_measure(atoms6, F(9, 2), F(1, 3))
        step2 = transforms.geronimus_measure(step1, -4, 0)
        direct = transforms.multiply_measure(step2, wc)
        g = gram.gram_matrix(direct, 3)
        assert res.family.gram.rows == g.rows

    def test_reduces_to_christoffel(self, atoms6, fam6):
        wc = PolyPerturbation.simple(F(7, 2))
        free = GeronimusFreeData(())
        res = transforms.linear_spectral(fam6, wc, PolyPerturbation(()), free, 4)
        ghat = transforms.christoffel_gram(gram.gram_matrix(atoms6, 5), wc)
        assert res.family.gram.rows == ghat.rows

    def test_reduces_to_geronimus(self, atoms6, fam6):
        wg = PolyPerturbation.simple(F(9, 2))
        free = GeronimusFreeData.for_measure(atoms6, wg, [F(1, 3)])
        res = transforms.linear_spectral(fam6, PolyPerturbation(()), wg, free, 4)
        col = transforms.geronimus_first_column(atoms6, F(9, 2), F(1, 3), 4)
        gchk = transforms.geronimus_gram(gram.gram_matrix(atoms6, 4), F(9, 2), col)
        assert res.family.gram.rows == gchk.rows

    def test_integral_moments_are_int(self):
        # W_C = x - 2 and one mass at 1/2 with xi = c_0 = 1/2 give the moments 6, 6, 28, 129, 1187/2, ...
        m = gram.DiscreteMeasure.from_pairs([(q, 1) for q in range(6)])
        f = biorth.build_families(gram.gram_matrix(m, 6))
        half = F(1, 2)
        res = transforms.linear_spectral(f, PolyPerturbation.simple(2), PolyPerturbation.simple(half),
                                         GeronimusFreeData(((half, half, half),)), 3)
        assert res.moments[:5] == (6, 6, 28, 129, F(1187, 2))
        assert [v for v in res.moments if isinstance(v, F) and v.denominator == 1] == []

    def test_not_coprime(self, atoms6, fam6):
        w = PolyPerturbation.simple(F(7, 2))
        free = GeronimusFreeData.for_measure(atoms6, w, [0])
        with pytest.raises(NotCoprime):
            transforms.linear_spectral(fam6, w, w, free, 2)

    def test_multiple_root_rejected(self, atoms6, fam6):
        wg = PolyPerturbation(((F(9, 2), 2),))
        free = GeronimusFreeData(((F(9, 2), 0, 0),))
        with pytest.raises(UnsupportedMeasure):
            transforms.linear_spectral(fam6, PolyPerturbation.simple(0), wg, free, 2)

    def test_free_data_alignment(self, atoms6, fam6):
        wg = PolyPerturbation.simple(F(9, 2))
        free = GeronimusFreeData(((F(11, 2), 0, 0),))
        with pytest.raises(ValueError):
            transforms.linear_spectral(fam6, PolyPerturbation.simple(0), wg, free, 2)

    def test_not_hankel(self, bivariate2):
        f = biorth.build_families(gram.gram_matrix(bivariate2, 2))
        with pytest.raises(NotHankel):
            transforms.linear_spectral(
                f, PolyPerturbation.simple(0), PolyPerturbation(()), GeronimusFreeData(()), 1
            )


def family_or_index(build):
    """(H, S1 rows) of the family build() returns, or the index it refuses at."""
    try:
        fam = build()
    except NotQuasiDefinite as exc:
        return exc.index
    return fam.h, fam.s1.rows


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


class TestLinearSpectralFromMoments:
    @given(
        n=st.integers(1, 4),
        atoms=st.lists(st.tuples(small_rationals, small_rationals.filter(lambda w: w > 0)),
                       min_size=1, max_size=6, unique_by=lambda a: a[0]),
        g_roots=st.lists(small_rationals, min_size=1, max_size=3, unique=True),
        c_roots=st.lists(small_rationals, max_size=2, unique=True),
        xis=st.lists(small_rationals, min_size=3, max_size=3),
    )
    def test_moments_family_and_measure_agree(self, n, atoms, g_roots, c_roots, xis):
        # One to six atoms against a source Gram of size n to n + 1: a source with fewer
        # atoms than that does not factor, and then only the moment route answers.
        assume(not set(g_roots) & ({q for q, _ in atoms} | set(c_roots)))
        m = gram.DiscreteMeasure.from_pairs(atoms)
        wc, wg = PolyPerturbation.simple(*c_roots), PolyPerturbation.simple(*g_roots)
        free = GeronimusFreeData.for_measure(m, wg, xis[: len(g_roots)])
        g = gram.gram_matrix(m, n + max(0, (wc.degree - wg.degree + 1) // 2))
        core = family_or_index(
            lambda: transforms.linear_spectral_from_moments(
                gram.moments_discrete(m, 2 * g.shape[0] - 2), wc, wg, free, n).family)

        target = m
        for q, xi, _ in free.entries:
            target = transforms.geronimus_measure(target, q, xi)
        target = transforms.multiply_measure(target, wc)
        assert core == family_or_index(
            lambda: biorth.build_families(gram.gram_matrix(target, n)))

        try:
            f = biorth.build_families(g)
        except NotQuasiDefinite:
            assert len(atoms) < g.shape[0]
            return
        assert core == family_or_index(
            lambda: transforms.linear_spectral(f, wc, wg, free, n).family)


class TestMarkov:
    def test_residuals_zero(self, atoms3):
        assert transforms.markov_transform_check(atoms3, 3, 2, 0) == (0, 0, 0)

    def test_xi_cancels(self, atoms3):
        assert transforms.markov_transform_check(atoms3, 3, 2, 7) == (0, 0, 0)

    def test_six_atoms(self, atoms6):
        assert transforms.markov_transform_check(atoms6, F(7, 2), F(9, 2), F(1, 3)) == (0, 0, 0)

    def test_probe_on_atom(self, atoms3):
        with pytest.raises(PoleAtAtom):
            transforms.markov_transform_check(atoms3, 3, 2, 0, ys=[1])


class TestGalleryScript:
    def test_every_comparison_agrees(self):
        proc = run_child([str(ROOT / "scripts" / "transform_gallery.py"), "--seed", "3", "--atoms", "7"])
        assert proc.returncode == 0, proc.stderr
        verdicts = [line for line in proc.stdout.splitlines() if " vs " in line]
        assert len(verdicts) == 3
        assert all(line.endswith(": agree") for line in verdicts), verdicts
