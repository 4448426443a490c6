"""Families, spectral matrices, kernels, second-kind functions, Heine oracle."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opgb import biorth, gram, numlin, record, transforms
from opgb.errors import (
    InsufficientTruncation,
    NotHankel,
    NotQuasiDefinite,
    UnsupportedMeasure,
)
from opgb.numlin import (
    Matrix,
    char_poly,
    det,
    faddeev_leverrier,
    is_hankel,
    ldu_factorize,
    unit_lower_inverse,
)
from opgb.poly import exact_div, poly_eval, poly_scale, poly_sub, poly_trim
from opgb.scalars import canon

from conftest import (RATIONALS, dense_spectral_oracle, exact_blocks, positive_measures,
                      random_quasi_definite, rational_points, second_kind_series)

F = Fraction


def poly_deriv(p):
    """Ascending coefficients of p'."""
    return [i * c for i, c in enumerate(p)][1:] or [0]


def form_value(g, px, py):
    """Bilinear pairing sum px_i G_ij py_j of two coefficient lists."""
    return sum(
        px[i] * g.rows[i][j] * py[j] for i in range(len(px)) for j in range(len(py))
    )


def kernel_poly_x(f, n, y):
    """K_n(x, y) as a polynomial in x for fixed y."""
    out = [0]
    for k in range(n + 1):
        from opgb.poly import poly_add

        c = poly_eval(f.poly2(k), y)
        if c != 0:
            out = poly_add(out, poly_scale(F(c, 1) / f.h[k], f.poly1(k)))
    return out


class TestBuildFamilies:
    def test_three_atom_block(self, atoms3):
        f = biorth.build_families(gram.gram_matrix(atoms3, 2))
        assert f.poly1(1) == [0, 1]
        assert f.h == (3, 2)

    def test_hermite(self, hermite):
        f = biorth.family_from_measure(hermite, 3)
        assert f.poly1(2) == [F(-1, 2), 0, 1]
        assert f.h == (1, F(1, 2), F(1, 2))

    def test_bivariate(self, bivariate2):
        f = biorth.build_families(gram.gram_matrix(bivariate2, 2))
        assert f.poly1(1) == [-1, 1]
        assert f.poly2(1) == [0, 1]
        assert f.h == (1, 1)
        assert not f.hankel

    def test_factorization_reconstructs(self, fam6):
        from opgb.numlin import unit_lower_inverse

        n = fam6.size
        hd = Matrix([[fam6.h[i] if i == j else 0 for j in range(n)] for i in range(n)])
        g = unit_lower_inverse(fam6.s1) @ hd @ unit_lower_inverse(fam6.s2).transpose()
        assert g.rows == fam6.gram.rows

    def test_biorthogonality(self, fam6):
        g = fam6.gram
        for k in range(fam6.size):
            for l in range(fam6.size):
                want = fam6.h[k] if k == l else 0
                assert form_value(g, fam6.poly1(k), fam6.poly2(l)) == want

    def test_orthogonality_against_monomials(self, fam6):
        g = fam6.gram
        for k in range(fam6.size):
            for l in range(k):
                assert form_value(g, fam6.poly1(k), [0] * l + [1]) == 0
                assert form_value(g, [0] * l + [1], fam6.poly2(k)) == 0


def ldu_oracle(g, allow_final_zero=False):
    """(S1, S2, h) by ldu_factorize and two unit_lower_inverse calls, or the
    NotQuasiDefinite index it raises."""
    try:
        lo, d, up = ldu_factorize(g, allow_final_zero=allow_final_zero)
    except NotQuasiDefinite as exc:
        return ("NotQuasiDefinite", exc.index)
    return unit_lower_inverse(lo).rows, unit_lower_inverse(up.transpose()).rows, tuple(d)


def routed(g, allow_final_zero=False):
    try:
        f = biorth.build_families(g, allow_final_zero=allow_final_zero)
    except NotQuasiDefinite as exc:
        return ("NotQuasiDefinite", exc.index)
    return f.s1.rows, f.s2.rows, f.h


def hankel_block(ms, n):
    return Matrix([[ms[i + j] for j in range(n)] for i in range(n)])


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def hankel_moments(draw):
    """Moments m_0..m_{2n} and a block size n in 0..8: from rational atoms
    with mixed-sign weights, or raw rational moments (often singular)."""
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        ms = draw(st.lists(rationals, min_size=2 * n + 1, max_size=2 * n + 1))
    else:
        atoms = draw(st.lists(st.tuples(rationals, rationals.filter(bool)), min_size=1, max_size=8))
        ms = gram.moments_discrete(gram.DiscreteMeasure.from_pairs(atoms), 2 * n)
    return ms, n


class TestRecurrenceRoute:
    """Exact Hankel blocks take the recurrence route; LDU is its oracle."""

    @settings(max_examples=100)
    @given(hankel_moments(), st.booleans())
    def test_matches_ldu_oracle(self, data, allow_final_zero):
        ms, n = data
        g = hankel_block(ms, n)
        want = ldu_oracle(g, allow_final_zero=allow_final_zero)
        assert routed(g, allow_final_zero=allow_final_zero) == want

    @given(hankel_moments())
    def test_recurrence_route_taken(self, data):
        ms, n = data
        try:
            f = biorth.build_families(hankel_block(ms, n))
        except NotQuasiDefinite:
            return
        assert f.s2 is f.s1
        assert f.hankel

    def test_leading_block_of_larger_gram(self, atoms6):
        g = gram.gram_matrix(atoms6, 6)
        assert routed(g.leading(4)) == ldu_oracle(g.leading(4))

    def test_jacobi_n30(self):
        g = gram.gram_matrix(gram.ClassicalWeight("jacobi", alpha=F(1, 2), beta=0), 30)
        assert routed(g) == ldu_oracle(g)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_k_atoms_final_zero(self, k):
        m = gram.DiscreteMeasure.from_pairs([(F(j, 2) - 1, j + 1) for j in range(k)])
        g = gram.gram_matrix(m, k + 1)
        got = routed(g, allow_final_zero=True)
        assert got == ldu_oracle(g, allow_final_zero=True)
        assert got[2][-1] == 0
        assert routed(g) == ldu_oracle(g) == ("NotQuasiDefinite", k)

    @staticmethod
    def mixed_atoms():
        """40 distinct atoms, q with denominators 1..6 in turn, positive rational w."""
        rng, qs = random.Random(40), {}
        while len(qs) < 40:
            q = F(rng.randint(-24, 24), len(qs) % 6 + 1)
            qs.setdefault(q, F(rng.randint(1, 9), rng.randint(1, 6)))
        return gram.DiscreteMeasure.from_pairs(qs.items())

    @staticmethod
    def assert_s1_h_match_oracle(g, allow_final_zero=False):
        # S2 is S1 on this route, so the oracle's second inverse is skipped.
        lo, d, _ = ldu_factorize(g, allow_final_zero=allow_final_zero)
        f = biorth.build_families(g, allow_final_zero=allow_final_zero)
        assert (f.s1.rows, f.h) == (unit_lower_inverse(lo).rows, tuple(d))
        return f

    def test_mixed_denominators_n24(self):
        # The moment denominators differ widely, so the shared ones of sig_k and P_k do too.
        self.assert_s1_h_match_oracle(gram.gram_matrix(self.mixed_atoms(), 24))

    def test_mixed_denominators_final_zero(self):
        g = gram.gram_matrix(self.mixed_atoms(), 41)
        f = self.assert_s1_h_match_oracle(g, allow_final_zero=True)
        assert f.h[-1] == 0 and 0 not in f.h[:-1]
        assert routed(g) == ("NotQuasiDefinite", 40)

    def test_empty_block(self):
        f = biorth.build_families(Matrix([]))
        assert f.s1.rows == f.s2.rows == []
        assert f.h == ()

    @pytest.mark.parametrize("exact", [
        gram.gram_matrix(gram.ClassicalWeight("jacobi", alpha=0, beta=0), 8),
        Matrix.from_function(5, 5, lambda i, j: F(1, i + 2 * j + 1)),
    ], ids=["legendre", "non-hankel"])
    def test_float_gram_factors_its_exact_values(self, exact):
        g = Matrix([[float(v) for v in row] for row in exact.rows])
        want = biorth.build_families(Matrix([[F(v) for v in row] for row in g.rows]))
        assert repr(biorth.build_families(g)) == repr(want)

    def test_non_hankel_stays_on_ldu(self):
        g = Matrix([[4, 1, F(1, 2)], [2, 5, 1], [F(-1, 3), 1, 6]])
        assert repr(routed(g)) == repr(ldu_oracle(g))


def canonical(result):
    """An oracle's (S1 rows, S2 rows, h) in canonical form, or its refusal as it is."""
    if result[0] == "NotQuasiDefinite":
        return result
    s1, s2, h = result
    return Matrix(s1).canon().rows, Matrix(s2).canon().rows, tuple(canon(v) for v in h)


# Strictly diagonally dominant non-Hankel tables of size 2..8.
dominant_tables = exact_blocks().filter(lambda g: not is_hankel(g))


@st.composite
def rank_deficient_tables(draw):
    """G = A diag(d) B^T with unit lower n x r factors A, B and nonzero d, r < n <= 8:
    the leading minors of order <= r are nonzero and every larger one vanishes."""
    n = draw(st.integers(2, 8))
    r = draw(st.integers(1, n - 1))

    def factor():
        return [[1 if i == t else draw(RATIONALS) if i > t else 0 for t in range(r)]
                for i in range(n)]

    a, b = factor(), factor()
    d = draw(st.lists(RATIONALS.filter(bool), min_size=r, max_size=r))
    g = Matrix([[sum(a[i][t] * d[t] * b[j][t] for t in range(r)) for j in range(n)]
                for i in range(n)])
    assume(not is_hankel(g))
    return g, r


class TestFractionFreeRoute:
    """Non-Hankel blocks take numlin.gauss_borel; ldu_factorize and two
    unit_lower_inverse calls are its labelled oracle."""

    @given(dominant_tables)
    def test_matches_ldu_oracle(self, g):
        f = biorth.build_families(g)
        assert not f.hankel
        got, want = routed(g), canonical(ldu_oracle(g))
        assert got == want
        assert repr(got) == repr(want)

    @given(rank_deficient_tables(), st.booleans())
    def test_rank_deficient_refuses_at_the_rank(self, data, allow_final_zero):
        g, r = data
        n = g.shape[0]
        got = routed(g, allow_final_zero=allow_final_zero)
        want = canonical(ldu_oracle(g, allow_final_zero=allow_final_zero))
        assert repr(got) == repr(want)
        if allow_final_zero and r == n - 1:
            assert got[2][-1] == 0 and 0 not in got[2][:-1]
        else:
            assert got == ("NotQuasiDefinite", r)

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)),
        st.booleans())
    def test_small_integer_tables_refuse_where_the_oracle_does(self, rows, allow_final_zero):
        # Entries in -2..2 make a vanishing leading minor at any index likely.
        g = Matrix(rows)
        assume(not is_hankel(g))
        got = routed(g, allow_final_zero=allow_final_zero)
        assert repr(got) == repr(canonical(ldu_oracle(g, allow_final_zero=allow_final_zero)))

    @given(dominant_tables)
    def test_float_entries_factor_their_exact_values(self, exact):
        g = Matrix([[float(v) for v in row] for row in exact.rows])
        want = canonical(ldu_oracle(Matrix([[F(v) for v in row] for row in g.rows])))
        assert repr(routed(g)) == repr(want)

    def test_takes_no_oracle_step(self, monkeypatch):
        table = Matrix.from_function(6, 6, lambda i, j: F(1, i + 2 * j + 1) + (7 if i == j else 0))
        want = canonical(ldu_oracle(table))

        def oracle_called(*args, **kwargs):
            raise AssertionError("the production route called an oracle")

        for module in (numlin, biorth):
            for name in ("ldu_factorize", "unit_lower_inverse"):
                monkeypatch.setattr(module, name, oracle_called, raising=False)
        assert repr(routed(table)) == repr(want)


class TestEvalPoly:
    def test_hermite_p2(self, hermite):
        f = biorth.family_from_measure(hermite, 3)
        assert biorth.eval_poly(f, 1, 2, 1) == F(1, 2)

    def test_degree_zero(self, fam3):
        assert biorth.eval_poly(fam3, 1, 0, F(22, 7)) == 1

    def test_three_atom_p2_at_zero(self, fam3):
        assert biorth.eval_poly(fam3, 2, 2, 0) == F(-2, 3)

    def test_truncation_guard(self, fam3):
        with pytest.raises(InsufficientTruncation):
            biorth.eval_poly(fam3, 1, 3, 0)


class TestDegreeRange:
    """A size-n family certifies P_k for 0 <= k < n only: every reader refuses the rest."""

    @pytest.fixture
    def fam(self):
        m = gram.DiscreteMeasure.from_pairs([(q, 1) for q in (-1, 0, 1, 2, 3)])
        return biorth.build_families(gram.gram_matrix(m, 4))

    @pytest.mark.parametrize("k", [-1, 4])
    @pytest.mark.parametrize("call", [
        lambda f, k: biorth.eval_poly(f, 1, k, F(1, 2)),
        lambda f, k: biorth.eval_poly(f, 2, k, F(1, 2)),
        lambda f, k: biorth.cd_kernel(f, k, 2, F(1, 3)),
        lambda f, k: biorth.cd_kernel_poly_y(f, k, 2),
        lambda f, k: biorth.mixed_cd_kernel(f, biorth.second_kind_from_cauchy(f, 7, [1] * 4), k, 2),
        # At n = -1 the refusal is the degree's, not a ZeroAtRoot; at k = 4 the
        # degree-one and general (N = 2) formulas ask for P_4 as P_{n+1} and P_{n+N}.
        lambda f, k: transforms.christoffel_polys_deg1(f, 7, min(k, 3)),
        lambda f, k: transforms.christoffel_polys_general(
            f, transforms.PolyPerturbation(((5, 2),)), min(k, 2)),
        lambda f, k: transforms.geronimus_polys_deg1(
            f, biorth.second_kind_from_cauchy(f, 7, [1] * 4), [0] * 4, k),
    ], ids=["eval_poly_1", "eval_poly_2", "cd_kernel", "cd_kernel_poly_y", "mixed_cd_kernel",
            "christoffel_polys_deg1", "christoffel_polys_general", "geronimus_polys_deg1"])
    def test_out_of_range_refused(self, fam, call, k):
        with pytest.raises(InsufficientTruncation):
            call(fam, k)

    def test_short_family_is_not_a_zero_at_root(self, atoms3):
        # P_1 of the three atoms vanishes at 0, but a size-2 family has no P_2 to divide with.
        f = biorth.build_families(gram.gram_matrix(atoms3, 2))
        with pytest.raises(InsufficientTruncation):
            transforms.christoffel_polys_deg1(f, 0, 1)

    @pytest.mark.parametrize("call", [
        lambda f: biorth.eval_poly(f, 3, 1, 0), lambda f: biorth.spectral_matrix(f, 0),
    ], ids=["eval_poly", "spectral_matrix"])
    def test_side_must_be_one_or_two(self, fam, call):
        with pytest.raises(ValueError):
            call(fam)

    @pytest.mark.parametrize("j", [-1, 6])
    def test_moment_index_range(self, fam, j):
        with pytest.raises(InsufficientTruncation):
            biorth.moment_from_spectral(fam, j)


class TestSpectralMatrix:
    def test_three_atom(self, fam3):
        j = biorth.spectral_matrix(fam3, 1).j
        assert j.rows == [[0, 1], [F(2, 3), 0]]

    def test_laguerre_corner(self, laguerre0):
        f = biorth.family_from_measure(laguerre0, 4)
        j = biorth.spectral_matrix(f, 1).j
        assert j.rows[0][0] == 1
        assert j.rows[0][0] == -f.s1.rows[1][0]

    def test_hermite_diagonal_zero(self, hermite):
        f = biorth.family_from_measure(hermite, 5)
        j = biorth.spectral_matrix(f, 1).j
        assert all(j.rows[k][k] == 0 for k in range(4))

    def test_hessenberg_pattern(self, fam6):
        j = biorth.spectral_matrix(fam6, 1).j
        for k in range(5):
            for l in range(k + 1, 5):
                assert j.rows[k][l] == (1 if l == k + 1 else 0)

    def test_spectrality_rows(self, fam6):
        j = biorth.spectral_matrix(fam6, 1).j
        for k in range(fam6.size - 2):
            lhs = [0]
            from opgb.poly import poly_add

            for l in range(fam6.size - 1):
                if j.rows[k][l] != 0:
                    lhs = poly_add(lhs, poly_scale(j.rows[k][l], fam6.poly1(l)))
            rhs = [0] + fam6.poly1(k)
            assert poly_trim(lhs) == poly_trim(rhs)

    def test_hankel_link_j1_h_j2(self, fam6):
        j1 = biorth.spectral_matrix(fam6, 1).j
        j2 = biorth.spectral_matrix(fam6, 2).j
        n = fam6.size - 1
        hd = Matrix([[fam6.h[i] if i == j else 0 for j in range(n)] for i in range(n)])
        assert (j1 @ hd).rows == (hd @ j2.transpose()).rows

    def test_truncation_eigenvalues_match_roots(self, fam6):
        j = biorth.spectral_matrix(fam6, 1).j
        for k in range(1, fam6.size - 1):
            assert faddeev_leverrier(j.leading(k)) == fam6.poly1(k)


class TestThreeTerm:
    def test_three_atom(self, fam3):
        b, a = biorth.three_term_coeffs(fam3)
        assert b[0] == 0 and b[1] == F(2, 3)
        assert a[0] == 0 and a[1] == 0

    def test_hermite(self, hermite):
        f = biorth.family_from_measure(hermite, 6)
        b, a = biorth.three_term_coeffs(f)
        assert all(a[k] == 0 for k in range(5))
        assert all(b[k] == F(k, 2) for k in range(1, 5))

    def test_laguerre(self, laguerre0):
        f = biorth.family_from_measure(laguerre0, 4)
        b, a = biorth.three_term_coeffs(f)
        assert f.s1.rows[1][0] == -1
        assert f.s1.rows[2][1] == -4
        assert a[0] == 1
        assert b[1] == 1

    def test_recurrence_reproduces_polys(self, fam6):
        from opgb.poly import poly_add, poly_mul

        b, a = biorth.three_term_coeffs(fam6)
        for k in range(1, fam6.size - 1):
            x_pk = poly_mul([0, 1], fam6.poly1(k))
            rhs = poly_add(
                poly_add(poly_scale(b[k], fam6.poly1(k - 1)), poly_scale(a[k], fam6.poly1(k))),
                fam6.poly1(k + 1),
            )
            assert poly_trim(x_pk) == poly_trim(rhs)

    def test_not_hankel(self, bivariate2):
        f = biorth.build_families(gram.gram_matrix(bivariate2, 2))
        with pytest.raises(NotHankel):
            biorth.three_term_coeffs(f)


class TestKernels:
    def test_cd_kernel_closed_form(self, fam3):
        for x, y in ((1, 1), (F(1, 2), -2), (F(22, 7), F(-3, 5))):
            assert biorth.cd_kernel(fam3, 1, x, y) == F(1, 3) + F(x * y, 2)

    def test_cd_kernel_degree_zero(self, fam6):
        assert biorth.cd_kernel(fam6, 0, 5, 7) == F(1, 1) / fam6.h[0]

    def test_hermite_point(self, hermite):
        f = biorth.family_from_measure(hermite, 3)
        assert biorth.cd_kernel(f, 1, 1, 1) == 3

    def test_abc_equals_cd(self, fam6):
        pts = rational_points(21, 8)
        for l in range(1, fam6.size + 1):
            for x, y in zip(pts, reversed(pts)):
                assert biorth.abc_kernel(fam6.gram, l, x, y) == biorth.cd_kernel(
                    fam6, l - 1, x, y
                )

    def test_abc_degree_one(self, fam3):
        assert biorth.abc_kernel(fam3.gram, 1, 9, 9) == F(1, 3)

    def test_abc_hermite_origin(self, hermite):
        f = biorth.family_from_measure(hermite, 3)
        assert biorth.abc_kernel(f.gram, 2, 0, 0) == 1

    def test_cd_formula(self, fam6):
        n = 3
        pairs = [(x, y) for x in rational_points(31, 5) for y in rational_points(32, 4)]
        for x, y in pairs:
            lhs = (x - y) * biorth.cd_kernel(fam6, n, x, y)
            rhs = (
                poly_eval(fam6.poly2(n), y) * poly_eval(fam6.poly1(n + 1), x)
                - poly_eval(fam6.poly2(n + 1), y) * poly_eval(fam6.poly1(n), x)
            ) / F(fam6.h[n], 1)
            assert lhs == rhs

    def test_confluent_cd(self, fam6):
        from opgb.poly import poly_add, poly_mul

        for l in range(1, 5):
            lhs = [0]
            for k in range(l):
                sq = poly_mul(fam6.poly1(k), fam6.poly1(k))
                lhs = poly_add(lhs, poly_scale(F(1, 1) / fam6.h[k], sq))
            pl, pl1 = fam6.poly1(l), fam6.poly1(l - 1)
            rhs = poly_sub(poly_mul(poly_deriv(pl), pl1), poly_mul(poly_deriv(pl1), pl))
            rhs = poly_scale(F(1, 1) / fam6.h[l - 1], rhs)
            assert poly_trim(lhs) == poly_trim(rhs)

    def test_mixed_cd_values(self, atoms3, fam3):
        c1 = biorth.second_kind_values(fam3, atoms3, 2)
        assert biorth.mixed_cd_kernel(fam3, c1, 0, 5) == F(11, 18)
        assert biorth.mixed_cd_kernel(fam3, c1, 1, 0) == F(11, 18)

    def test_mixed_cd_formula(self, atoms6, fam6):
        n = 2
        x = F(9, 2)
        c1 = biorth.second_kind_values(fam6, atoms6, x)
        for y in rational_points(33, 6):
            lhs = (x - y) * biorth.mixed_cd_kernel(fam6, c1, n, y)
            rhs = (
                poly_eval(fam6.poly2(n), y) * c1.values1[n + 1]
                - poly_eval(fam6.poly2(n + 1), y) * c1.values1[n]
            ) / F(fam6.h[n], 1) + 1
            assert lhs == rhs

    def test_reproducing_property(self, fam6):
        g = fam6.gram
        l = 4
        for z1, z2 in zip(rational_points(34, 4), rational_points(35, 4)):
            a = kernel_poly_x(fam6, l - 1, z2)
            b = biorth.cd_kernel_poly_y(fam6, l - 1, z1)
            assert form_value(g, a, b) == biorth.cd_kernel(fam6, l - 1, z1, z2)

    def test_projection_property(self, fam6):
        g = fam6.gram
        n = 4
        for z in rational_points(36, 5):
            a = kernel_poly_x(fam6, n, z)
            for l in range(n + 1):
                assert form_value(g, a, [0] * l + [1]) == z**l


class TestSecondKind:
    def test_values(self, atoms3, fam3):
        v = biorth.second_kind_values(fam3, atoms3, 2)
        assert v.values1[0] == F(11, 6)
        assert v.values1[1] == F(2, 3)
        assert v.values1 == v.values2

    def test_single_atom(self):
        m = gram.DiscreteMeasure.from_pairs([(0, 1)])
        f = biorth.build_families(gram.gram_matrix(m, 1))
        v = biorth.second_kind_values(f, m, 2)
        assert v.values1[0] == F(1, 2)

    def test_series_approximates_exact(self, atoms3, fam3):
        z = 50.0
        series = second_kind_series(fam3, z)
        exact = biorth.second_kind_values(fam3, atoms3, F(50))
        for k in range(fam3.size):
            assert series[k] == pytest.approx(float(exact.values1[k]), abs=1e-4)

    def test_moment_identity(self, atoms6, fam6):
        ms = gram.moments_discrete(atoms6, 2 * 5 - 1)
        for j in range(2 * 5 - 1):
            assert biorth.moment_from_spectral(fam6, j) == ms[j]

    def test_moment_identity_guard(self, fam3):
        with pytest.raises(InsufficientTruncation):
            biorth.moment_from_spectral(fam3, 4)


class TestHeine:
    def test_degree_two_value(self, atoms3):
        assert biorth.heine_oracle(atoms3, 2, 1) == F(1, 3)

    def test_degree_zero(self, atoms3):
        assert biorth.heine_oracle(atoms3, 0, F(9, 7)) == 1

    def test_degree_one_is_x(self, atoms3):
        for x in (0, 1, F(5, 1), F(-3, 2)):
            assert biorth.heine_oracle(atoms3, 1, x) == x

    def test_matches_factorization(self, atoms6, fam6):
        for k in range(5):
            for x in (F(1, 2), -2, F(13, 4)):
                assert biorth.heine_oracle(atoms6, k, x) == poly_eval(fam6.poly1(k), x)

    def test_rejects_derivative_atoms(self, deriv_measure):
        with pytest.raises(UnsupportedMeasure):
            biorth.heine_oracle(deriv_measure, 1, 0)


def moment_families():
    """Hermite n = 8 (odd moments from m_3 on are Fraction(0, 1)), Jacobi(1/2, 0) n = 8 and
    six atoms at n = 7 (final H zero)."""
    atoms = gram.DiscreteMeasure.from_pairs([(-2, 1), (-1, 2), (0, 1), (1, 3), (2, 1), (3, 2)])
    return {
        "hermite": biorth.family_from_measure(gram.ClassicalWeight("hermite"), 8),
        "jacobi": biorth.family_from_measure(gram.ClassicalWeight("jacobi", alpha=F(1, 2), beta=0), 8),
        "atoms6": biorth.build_families(gram.gram_matrix(atoms, 7), allow_final_zero=True),
    }


def dense_power_moment_oracle(f, j):
    """Oracle: (J^j)_{0,0} H_0 read off the whole dense power J^j."""
    jm = biorth.spectral_matrix(f, 1).j
    power = Matrix.identity(jm.shape[0])
    for _ in range(j):
        power = power @ jm
    return power.rows[0][0] * f.h[0]


class TestMomentRows:
    """moment_from_spectral gives the dense power's value, canonical."""

    @pytest.mark.parametrize("name", ["hermite", "jacobi", "atoms6"])
    def test_repr_matches_dense_power(self, name):
        f = moment_families()[name]
        k = f.size - 1
        for j in range(2 * k):
            got = biorth.moment_from_spectral(f, j)
            assert repr(got) == repr(canon(dense_power_moment_oracle(f, j)))

    def test_hermite_odd_moment_types(self):
        # Every odd Hermite moment is zero, and zero is the int 0 whatever route made it.
        f = moment_families()["hermite"]
        got = [repr(biorth.moment_from_spectral(f, j)) for j in (1, 3, 13)]
        assert got == ["0", "0", "0"]


class TestSpectralMemo:
    """A family keeps its Jacobi band and nothing else: J is written on each call,
    so a caller owns it, and repr, == and record.replace see only the five fields."""

    def test_fields(self):
        assert list(record.fields(biorth.BiorthFamilies)) == [
            "s1", "s2", "h", "gram", "hankel"]

    def test_table_keeps_no_j(self):
        f = biorth.build_families(random_quasi_definite(random.Random(3), 5))
        before = {k: repr(v) for k, v in vars(f).items()}
        biorth.spectral_matrix(f, 1)
        biorth.spectral_matrix(f, 2)
        assert {k: repr(v) for k, v in vars(f).items()} == before

    def test_repeat_calls_equal(self, fam6):
        assert repr(biorth.spectral_matrix(fam6, 1)) == repr(biorth.spectral_matrix(fam6, 1))
        assert repr(biorth.spectral_matrix(fam6, 2)) == repr(biorth.spectral_matrix(fam6, 2))

    def test_caller_cannot_change_kept_j(self, fam6):
        table = biorth.build_families(random_quasi_definite(random.Random(7), 5))
        assert not table.hankel
        for f in (fam6, table):
            want = [repr(biorth.spectral_matrix(f, side).j) for side in (1, 2)]
            for side in (1, 2):
                j = biorth.spectral_matrix(f, side).j
                j.rows[0][0] = 99
                j.rows[1] = []
            assert [repr(biorth.spectral_matrix(f, side).j) for side in (1, 2)] == want
        assert want[0] != want[1]

    def test_sides_differ_on_table(self):
        f = biorth.build_families(random_quasi_definite(random.Random(3), 5))
        assert not f.hankel
        j1 = biorth.spectral_matrix(f, 1)
        j2 = biorth.spectral_matrix(f, 2)
        assert (j1.side, j2.side) == (1, 2)
        assert j1.j != j2.j
        want = dense_spectral_oracle(f, 2)
        assert biorth.spectral_matrix(f, 2).j == want
        assert biorth.spectral_matrix(f, 1).j == j1.j

    def test_hankel_sides_share_values(self, fam6):
        j1 = biorth.spectral_matrix(fam6, 1)
        j2 = biorth.spectral_matrix(fam6, 2)
        assert repr(j1.j) == repr(j2.j) and j2.side == 2
        assert j1.j.rows is not j2.j.rows

    def test_family_repr_and_equality_unaffected(self, atoms6):
        f = biorth.build_families(gram.gram_matrix(atoms6, 6))
        g = biorth.build_families(gram.gram_matrix(atoms6, 6))
        before = repr(f)
        biorth.spectral_matrix(f, 1)
        assert repr(f) == before == repr(g)
        assert f == g

    def test_replace_does_not_carry_kept_j(self, fam6, hermite):
        other = biorth.family_from_measure(hermite, 6)
        biorth.spectral_matrix(fam6, 1)
        moved = record.replace(fam6, s1=other.s1, s2=other.s2, h=other.h, gram=other.gram)
        assert repr(biorth.spectral_matrix(moved, 1)) == repr(biorth.spectral_matrix(other, 1))

    def test_replace_does_not_carry_kept_band(self, fam6, hermite):
        other = biorth.family_from_measure(hermite, 6)
        x, y = F(1, 3), F(-5, 2)
        # Fill fam6's band first, so a carried band would show in every result below.
        biorth.cd_kernel(fam6, 5, x, y)
        biorth.moment_from_spectral(fam6, 1)
        moved = record.replace(fam6, s1=other.s1, s2=other.s2, h=other.h)
        assert biorth.three_term_coeffs(moved) == biorth.three_term_coeffs(other)
        assert repr(biorth.cd_kernel(moved, 5, x, y)) == repr(biorth.cd_kernel(other, 5, x, y))
        for j in range(2 * moved.size - 2):
            assert repr(biorth.moment_from_spectral(moved, j)) == repr(biorth.moment_from_spectral(other, j))


class TestBackSubstitutedJ:
    """J (by back-substitution on S, or off the band of a Hankel family) equals the
    dense conjugation, value and canonical repr."""

    @given(exact_blocks(), st.sampled_from([1, 2]))
    def test_matches_dense_oracle(self, g, side):
        f = biorth.build_families(g)
        got = biorth.spectral_matrix(f, side).j
        want = dense_spectral_oracle(f, side)
        assert got == want
        assert repr(got) == repr(want.canon())
        assert repr(biorth.back_substituted_spectral(f.s1 if side == 1 else f.s2)) == repr(got)


@st.composite
def hankel_cases(draw):
    """(measure, family, x, y, a): a Hankel family of size n in 2..8 from positive atoms,
    as exact_blocks() draws it, or, half the time, from n - 1 atoms with
    allow_final_zero, so that its last pairing H_{n-1} vanishes; two rational
    points and a second-kind point off the atoms."""
    n = draw(st.integers(2, 8))
    final_zero = draw(st.booleans())
    m = draw(positive_measures(n - 1, n - 1) if final_zero else positive_measures(n))
    f = biorth.build_families(gram.gram_matrix(m, n), allow_final_zero=final_zero)
    a = draw(RATIONALS.filter(lambda v: v not in m.support()))
    return m, f, draw(RATIONALS), draw(RATIONALS), a


def horner_values(f, side, n, x):
    """Oracle: P_{side,k}(x) for k <= n by Horner on the rows of S."""
    return [poly_eval(f.poly1(k) if side == 1 else f.poly2(k), x) for k in range(n + 1)]


class TestBandRoute:
    """A Hankel family's band route equals the S-row oracles, in value and canonical repr:
    back-substitution and the dense conjugation for J, Horner for point values and
    kernels, S c for second-kind values, dense powers and the Gram block for moments."""

    @staticmethod
    def same(got, want):
        assert got == want
        assert repr(got) == repr(canon(want))

    @settings(max_examples=60)
    @given(hankel_cases())
    def test_matches_oracles(self, case):
        m, f, x, y, a = case
        assert f.hankel
        j = biorth.spectral_matrix(f, 1).j
        assert j == dense_spectral_oracle(f, 1) == biorth.back_substituted_spectral(f.s1)
        assert repr(j) == repr(biorth.back_substituted_spectral(f.s1))
        top = f.size - 1
        for side in (1, 2):
            want = horner_values(f, side, top, x)
            assert biorth.point_values(f, side, top, x) == want
            for k in range(f.size):
                self.same(biorth.eval_poly(f, side, k, x), want[k])
        c1 = biorth.second_kind_values(f, m, a)
        want_c1 = biorth.second_kind_from_cauchy(f, a, gram.cauchy_moments(m, a, f.size - 1))
        assert repr(c1) == repr(want_c1)
        px, py = horner_values(f, 1, top, x), horner_values(f, 2, top, y)
        # H_{n-1} = 0 on a final-zero family: its order n - 1 kernels divide by zero on every route.
        for n in range(f.size if f.h[-1] else f.size - 1):
            terms = [exact_div(py[k] * px[k], f.h[k]) for k in range(n + 1)]
            self.same(biorth.cd_kernel(f, n, x, y), sum(terms))
            factors = [exact_div(px[k], f.h[k]) for k in range(n + 1)]
            assert biorth.cd_kernel_poly_y(f, n, x) == biorth.p2_combination(f, factors)
            mixed = [exact_div(py[k] * want_c1.values1[k], f.h[k]) for k in range(n + 1)]
            self.same(biorth.mixed_cd_kernel(f, c1, n, y), sum(mixed))
        assert transforms.xi_pairing_single_mass(f, a, F(1, 3)) == [F(1, 3) * v for v in
                                                                    horner_values(f, 1, top, a)]
        ms = numlin.hankel_moments(f.gram)
        power = Matrix.identity(j.shape[0])
        for i in range(2 * j.shape[0]):
            got = biorth.moment_from_spectral(f, i)
            self.same(got, power.rows[0][0] * f.h[0])
            assert got == ms[i]
            power = power @ j

    def test_c0_route_matches_cauchy_oracle(self, legendre):
        # A continuous measure: c_0 is given, the Cauchy moments follow from it and the moments.
        f = biorth.family_from_measure(legendre, 7)
        a, c0 = 3, F(7, 5)
        want = biorth.second_kind_from_cauchy(
            f, a, gram.cauchy_from_c0(numlin.hankel_moments(f.gram), a, c0, f.size - 1))
        assert repr(biorth.second_kind_from_c0(f, a, c0)) == repr(want)

    def test_c0_route_needs_hankel(self):
        f = biorth.build_families(random_quasi_definite(random.Random(5), 4))
        with pytest.raises(NotHankel):
            biorth.second_kind_from_c0(f, 2, 1)

    @pytest.mark.parametrize("call", [
        lambda f: biorth.second_kind_values(f, gram.DiscreteMeasure.from_pairs([(0, 1), (1, 1)]), 2),
        lambda f: biorth.moment_from_spectral(f, 1),
        lambda f: biorth.moment_from_spectral(f, 2 * f.size - 3),
    ], ids=["second_kind_values", "moment_from_spectral_1", "moment_from_spectral_top"])
    def test_measure_readers_refuse_tables(self, call):
        # A table has no moment sequence and no measure: no Cauchy values or moments to read.
        f = biorth.build_families(random_quasi_definite(random.Random(5), 5))
        assert not f.hankel
        with pytest.raises(NotHankel):
            call(f)


class TestBandRouteTaken:
    """On a Hankel family no band reader Horners a row of S, multiplies matrices,
    back-substitutes or forms S c: a route that falls back fails here."""

    def test_no_s_row_route(self, atoms6, monkeypatch):
        f = biorth.build_families(gram.gram_matrix(atoms6, 6))
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        # A reader that imports poly_eval for a Horner fallback is caught in the module that binds it.
        for mod in (biorth, transforms):
            if hasattr(mod, "poly_eval"):
                monkeypatch.setattr(mod, "poly_eval", counted("poly_eval", poly_eval))
        monkeypatch.setattr(Matrix, "__matmul__", counted("matmul", Matrix.__matmul__))
        monkeypatch.setattr(biorth, "back_substituted_spectral",
                            counted("back_substituted_spectral", biorth.back_substituted_spectral))
        monkeypatch.setattr(biorth, "second_kind_from_cauchy",
                            counted("second_kind_from_cauchy", biorth.second_kind_from_cauchy))
        x, y, a = F(1, 3), F(-5, 2), F(7, 2)
        c1 = biorth.second_kind_values(f, atoms6, a)
        for n in range(f.size):
            biorth.cd_kernel(f, n, x, y)
            biorth.cd_kernel_poly_y(f, n, x)
            biorth.mixed_cd_kernel(f, c1, n, y)
            biorth.eval_poly(f, 1, n, x)
        for j in range(2 * f.size - 2):
            biorth.moment_from_spectral(f, j)
        biorth.spectral_matrix(f, 1)
        biorth.spectral_matrix(f, 2)
        transforms.xi_pairing_single_mass(f, a, 1)
        for n in range(f.size - 1):
            transforms.christoffel_polys_deg1(f, a, n)
        assert calls == []


def integral_fractions(x):
    """Every integral Fraction held in a result: scalars, lists, tuples, Matrix, records."""
    if isinstance(x, F):
        return [x] if x.denominator == 1 else []
    if isinstance(x, Matrix):
        x = x.rows
    elif isinstance(x, record.Record):
        x = [getattr(x, name) for name in record.fields(x)]
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in integral_fractions(item)]
    return []


def public_results(source, n=6):
    """Results of the public calls on one source, canonical inputs throughout."""
    g = source if isinstance(source, Matrix) else gram.gram_matrix(source, n)
    f = biorth.build_families(g)
    w = transforms.PolyPerturbation.simple(7, F(-7, 3))
    out = [g, f, biorth.spectral_matrix(f, 1), biorth.spectral_matrix(f, 2),
           transforms.christoffel_gram(g, w)]
    for x, y in ((F(1, 2), 3), (-2, F(5, 3)), (0, 1)):
        out += [biorth.cd_kernel(f, n - 1, x, y), biorth.abc_kernel(g, n, x, y)]
    out += [transforms.christoffel_polys_general(f, w, deg) for deg in range(n - 2)]
    out += [transforms.christoffel_polys_deg1(f, 7, deg) for deg in range(n - 1)]
    if f.hankel:
        out += [biorth.moment_from_spectral(f, j) for j in range(2 * n - 2)]
        out += [biorth.three_term_coeffs(f), gram.moments(source, 2 * n - 2)]
    if isinstance(source, gram.DiscreteMeasure):
        a, xi = F(9, 2), F(1, 3)
        c1 = biorth.second_kind_values(f, source, a)
        xp = transforms.xi_pairing_single_mass(f, a, xi)
        out += [c1] + [transforms.geronimus_polys_deg1(f, c1, xp, deg) for deg in range(n)]
        out += [biorth.mixed_cd_kernel(f, c1, n - 2, y) for y in (F(1, 2), -2, 3)]
    return out


class TestCanonicalResults:
    """On canonical inputs no public result holds an integral Fraction."""

    @pytest.mark.parametrize("name", ["atoms6", "deriv", "hermite", "jacobi", "table5", "table15"])
    def test_no_integral_fraction(self, name, atoms6, hermite):
        deriv = [gram.Atom(0, 1), gram.Atom(1, 2, 1), gram.Atom(-2, 1), gram.Atom(3, 1), gram.Atom(F(1, 2), 3)]
        source = {
            "atoms6": atoms6,
            "deriv": gram.DiscreteMeasure(tuple(deriv)),
            "hermite": hermite,
            "jacobi": gram.ClassicalWeight("jacobi", alpha=F(1, 2), beta=0),
            # Raw LDU output of the seed-15 table holds Fraction(0, 1).
            "table5": random_quasi_definite(random.Random(5), 6).canon(),
            "table15": random_quasi_definite(random.Random(15), 6).canon(),
        }[name]
        assert integral_fractions(public_results(source)) == []

    def test_walk_reads_record_fields(self, atoms6):
        # The walk must see into records, or test_no_integral_fraction passes empty.
        planted = biorth.SecondKindValues(F(1, 2), (F(1, 3), F(4)), ())
        assert integral_fractions([planted, gram.Atom(F(1, 2), F(3, 1))]) == [F(4), F(3)]
        f = biorth.build_families(gram.gram_matrix(atoms6, 4))
        h = f.h[:1] + (F(5),) + f.h[2:]
        assert integral_fractions(record.replace(f, h=h)) == [F(5)]

    @pytest.mark.parametrize("xi, want", [
        (F(2), "[2, 5, 10, 21]"), (F(0), "[0, 0, 0, 0]"), (0, "[0, 0, 0, 0]"),
    ], ids=["integral", "fraction-zero", "int-zero"])
    def test_xi_pairing_single_mass(self, xi, want):
        # xi P_k(3) on four unit atoms, with P_k(3) = 1, 5/2, 5, 21/2: ints where integral.
        m = gram.DiscreteMeasure.from_pairs([(q, 1) for q in (-1, 0, 1, 2)])
        f = biorth.build_families(gram.gram_matrix(m, 4))
        assert repr(transforms.xi_pairing_single_mass(f, F(3), xi)) == want

    def test_christoffel_connector(self):
        # Products that cancel below the band give Fraction(0, 1) unless the result is canonical.
        m = gram.DiscreteMeasure.from_pairs([(-1, 1), (F(1, 2), 2), (2, F(1, 3)), (3, 1)])
        g = gram.gram_matrix(m, 4)
        w = transforms.PolyPerturbation.simple(5)
        fhat = biorth.build_families(transforms.christoffel_gram(g, w))
        omega = transforms.christoffel_connector(biorth.build_families(g), fhat, w)
        assert omega.shape == (3, 4) and integral_fractions(omega) == []

    def test_ldu_pivots(self):
        # The elimination leaves 3/2 - 1/2 as Fraction(1, 1) unless the pivots are canonical.
        _, d, _ = ldu_factorize(Matrix([[2, 1], [1, F(3, 2)]]))
        assert repr(d) == "[2, 1]"

    def test_schur_complement(self):
        out = numlin.schur_complement(Matrix([[2, 1], [1, F(1, 2)]]), 1)
        assert repr(out) == "Matrix([[0]])"


def unit_family(*atoms, n=5):
    m = gram.DiscreteMeasure.from_pairs([(q, 1) for q in atoms])
    return biorth.build_families(gram.gram_matrix(m, n)), m


FLOAT_POINT_CALLS = {
    # On these atoms a float root left a remainder of 5.55e-17 in the division by x - a.
    "christoffel_polys_deg1": lambda x: transforms.christoffel_polys_deg1(
        unit_family(-1, 0, 1, 2, 3)[0], x, 2),
    "christoffel_polys_general": lambda x: transforms.christoffel_polys_general(
        unit_family(-1, 0, 1, 2, 3)[0], transforms.PolyPerturbation.simple(x, 2), 1),
    # On these atoms a float root gave values, but not those of its exact value.
    "christoffel_polys_deg1_answering": lambda x: transforms.christoffel_polys_deg1(
        unit_family(0, 1, 2, 3, 4)[0], x, 2),
    "christoffel_gram": lambda x: transforms.christoffel_gram(
        unit_family(0, 1, 2, 3, 4)[0].gram, transforms.PolyPerturbation.simple(x)),
    "free_data": lambda x: transforms.GeronimusFreeData.for_measure(
        unit_family(0, 1, 2, 3, 4)[1], transforms.PolyPerturbation.simple(x), [x]),
    "xi_pairing_single_mass": lambda x: transforms.xi_pairing_single_mass(
        unit_family(0, 1, 2, 3, 4)[0], 3, x),
    "abc_kernel": lambda x: biorth.abc_kernel(unit_family(-2, -1, 0, 1, 2)[0].gram, 5, x, x),
    "cauchy_moments": lambda x: gram.cauchy_moments(unit_family(-2, -1, 0, 1, 2)[1], x, 4),
    "second_kind_values": lambda x: biorth.second_kind_values(*unit_family(-2, -1, 0, 1, 2), x),
    "second_kind_from_c0": lambda x: biorth.second_kind_from_c0(
        unit_family(-2, -1, 0, 1, 2)[0], 3, x),
    "geronimus_first_column": lambda x: transforms.geronimus_first_column(
        unit_family(0, 1, 2, 3, 4)[1], x, x, 3),
    "geronimus_gram": lambda x: transforms.geronimus_gram(
        unit_family(0, 1, 2, 3, 4)[0].gram, x, [x, 1, 2, 3, 4]),
    "multiply_measure_by_linear": lambda x: transforms.multiply_measure_by_linear(
        unit_family(0, 1, 2, 3, 4)[1], x),
    "divide_measure_by_linear": lambda x: transforms.divide_measure_by_linear(
        unit_family(0, 1, 2, 3, 4)[1], x),
    "geronimus_measure": lambda x: transforms.geronimus_measure(unit_family(0, 1, 2, 3, 4)[1], x, x),
    "heine_oracle": lambda x: biorth.heine_oracle(unit_family(0, 1, 2, 3, 4)[1], 2, x),
    "markov_transform_check": lambda x: transforms.markov_transform_check(
        unit_family(0, 1, 2, 3, 4)[1], x, F(9, 2), x),
    "schur_complement": lambda x: numlin.schur_complement(Matrix([[2, 1], [1, x]]), 1),
}


@pytest.mark.parametrize("name", sorted(FLOAT_POINT_CALLS))
def test_float_point_taken_exactly(name):
    # A float point, root or mass stands for its exact binary value (scalars.canon).
    call = FLOAT_POINT_CALLS[name]
    assert repr(call(0.1)) == repr(call(F(0.1)))


# sha256 of repr((J, [m_j for j < 2k], [char_poly(J^[i]) for i = 1..k])) with
# every scalar canonical; equal to the canonical form of the dense-conjugation
# J's output. A route that leaves Fraction(0, 1) for 0, or changes a value,
# changes these.
PINNED_SPECTRAL = {
    "hermite": "3cc2f8034fd2f732711881e402e783017fc6289d751876b215714d5488226b1d",
    "jacobi": "8d54d25172e1039bc45d7e99a3d5847ef94e46f9f3a736d585168b1807312362",
    "atoms6": "4133aebb77f56684aba85ff593685bf3eb02ccbe9db87927c0f229b769a37618",
}


@pytest.mark.parametrize("name", sorted(PINNED_SPECTRAL))
def test_pinned_spectral_reprs(name):
    f = moment_families()[name]
    j = biorth.spectral_matrix(f, 1).j
    k = j.shape[0]
    text = repr((j, [biorth.moment_from_spectral(f, i) for i in range(2 * k)],
                 [char_poly(j.leading(i)) for i in range(1, k + 1)]))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SPECTRAL[name]
