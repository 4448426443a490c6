"""Families, spectral matrices, kernels, second-kind functions, Heine oracle."""

import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgb import biorth, gram, transforms
from opgb.errors import (
    InsufficientTruncation,
    NotHankel,
    NotQuasiDefinite,
    UnsupportedMeasure,
)
from opgb.numlin import Matrix, char_poly, det, ldu_factorize, shift_matrix, unit_lower_inverse
from opgb.poly import poly_deriv, poly_eval, poly_scale, poly_sub, poly_trim
from opgb.scalars import canon

from conftest import random_quasi_definite, rational_points

F = Fraction


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

    def test_empty_block(self):
        f = biorth.build_families(Matrix([]))
        assert f.s1.rows == f.s2.rows == []
        assert f.h == ()

    def test_float_hankel_stays_on_ldu(self, legendre):
        g = Matrix([[float(v) for v in row] for row in gram.gram_matrix(legendre, 8).rows])
        f = biorth.build_families(g)
        assert f.s2 is not f.s1
        assert repr(routed(g)) == repr(ldu_oracle(g))

    def test_non_hankel_stays_on_ldu(self):
        g = Matrix([[4, 1, F(1, 2)], [2, 5, 1], [F(-1, 3), 1, 6]])
        assert repr(routed(g)) == repr(ldu_oracle(g))


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
            assert char_poly(j.leading(k)) == fam6.poly1(k)


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
        series = biorth.second_kind_series(fam3, z)
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
    """moment_from_spectral forms row 0 of J^j only: the dense power's value, canonical."""

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
    """J is built once per family and S matrix; callers get copies."""

    def test_repeat_calls_equal(self, fam6):
        assert repr(biorth.spectral_matrix(fam6, 1)) == repr(biorth.spectral_matrix(fam6, 1))
        assert repr(biorth.spectral_matrix(fam6, 2)) == repr(biorth.spectral_matrix(fam6, 2))

    def test_caller_cannot_change_kept_j(self, fam6):
        want = repr(biorth.spectral_matrix(fam6, 1).j)
        j = biorth.spectral_matrix(fam6, 1).j
        j.rows[0][0] = 99
        j.rows[1] = []
        assert repr(biorth.spectral_matrix(fam6, 1).j) == want
        assert repr(biorth.spectral_matrix(fam6, 2).j) == want

    def test_sides_differ_on_table(self):
        f = biorth.build_families(random_quasi_definite(random.Random(3), 5))
        assert not f.hankel
        j1 = biorth.spectral_matrix(f, 1)
        j2 = biorth.spectral_matrix(f, 2)
        assert (j1.side, j2.side) == (1, 2)
        assert j1.j != j2.j
        want = (f.s2 @ shift_matrix(5) @ unit_lower_inverse(f.s2)).leading(4)
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
        moved = dataclasses.replace(fam6, s1=other.s1, s2=other.s2, h=other.h, gram=other.gram)
        assert repr(biorth.spectral_matrix(moved, 1)) == repr(biorth.spectral_matrix(other, 1))


def dense_spectral_oracle(f, side):
    """Oracle: the leading (n-1) x (n-1) block of the dense conjugation S Lambda S^{-1}."""
    s = f.s1 if side == 1 else f.s2
    return (s @ shift_matrix(f.size) @ unit_lower_inverse(s)).leading(f.size - 1)


@st.composite
def exact_blocks(draw):
    """An exact quasi-definite block of size 2..8: Hankel from distinct rational
    atoms with positive weights, or a strictly diagonally dominant table."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        qs = draw(st.lists(rationals, min_size=n, max_size=8, unique=True))
        ws = draw(st.lists(rationals.filter(lambda w: w > 0), min_size=len(qs), max_size=len(qs)))
        return gram.gram_matrix(gram.DiscreteMeasure.from_pairs(zip(qs, ws)), n)
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    return Matrix([[v + (4 * n if i == j else 0) for j, v in enumerate(row)] for i, row in enumerate(rows)])


class TestBackSubstitutedJ:
    """J by back-substitution on S equals the dense conjugation, value and canonical repr."""

    @given(exact_blocks(), st.sampled_from([1, 2]))
    def test_matches_dense_oracle(self, g, side):
        f = biorth.build_families(g)
        got = biorth.spectral_matrix(f, side).j
        want = dense_spectral_oracle(f, side)
        assert got == want
        assert repr(got) == repr(want.canon())

    def test_float_jacobi_matches_exact(self):
        g = gram.gram_matrix(gram.ClassicalWeight("jacobi", alpha=F(1, 2), beta=0), 8)
        exact = biorth.spectral_matrix(biorth.build_families(g), 1).j
        approx = biorth.spectral_matrix(
            biorth.build_families(Matrix([[float(v) for v in row] for row in g.rows])), 1).j
        scale = max(abs(float(v)) for row in exact.rows for v in row)
        for erow, arow in zip(exact.rows, approx.rows):
            for e, a in zip(erow, arow):
                assert isinstance(a, (int, float))
                assert abs(a - float(e)) <= 1e-12 * scale


def integral_fractions(x):
    """Every integral Fraction held in a result: scalars, lists, tuples, Matrix, dataclasses."""
    if isinstance(x, F):
        return [x] if x.denominator == 1 else []
    if isinstance(x, Matrix):
        x = x.rows
    elif dataclasses.is_dataclass(x):
        x = [getattr(x, fl.name) for fl in dataclasses.fields(x) if fl.repr]
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
