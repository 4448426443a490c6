"""Dense exact linear algebra: Schur complements, LDU, char_poly, and the dense operator oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from opgb import biorth
from opgb.errors import NotQuasiDefinite, SingularBlock, SingularTruncation
from opgb.numlin import (
    Matrix,
    char_poly,
    det,
    faddeev_leverrier,
    hankel_moments,
    is_hankel,
    ldu_factorize,
    schur_complement,
    solve,
    solve_vector,
    unit_lower_inverse,
)
from opgb.scalars import canon

from conftest import (RATIONALS, derivative_matrix, exact_blocks, polynomial_of_operator,
                      random_quasi_definite, shift_matrix)

F = Fraction


def shift_transpose_matrix(n):
    """Oracle: Lambda^T built directly, ones on the first subdiagonal."""
    out = Matrix.zeros(n)
    for i in range(n - 1):
        out.rows[i + 1][i] = 1
    return out


@st.composite
def lower_hessenberg(draw):
    """An exact n x n lower Hessenberg matrix, n in 0..8, with some superdiagonal entries 0."""
    n = draw(st.integers(0, 8))
    rows = [[draw(RATIONALS) if j <= i + 1 else 0 for j in range(n)] for i in range(n)]
    for i in draw(st.sets(st.integers(0, max(n - 2, 0)))):
        if i + 1 < n:
            rows[i][i + 1] = 0
    return Matrix(rows)


def assert_equals_oracle(m):
    got, want = char_poly(m), faddeev_leverrier(m)
    assert got == want
    assert repr(got) == repr(want)


def cofactor_det(rows):
    """Oracle: det by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * c * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, c in enumerate(rows[0]) if c != 0
    )


@st.composite
def square_systems(draw):
    """(A, B): an exact n x n A, n in 1..5, and an n x m right-hand side, m in 1..3.

    A is drawn as it comes, with a zero leading entry (the first step needs a
    row swap), or singular (its last row a combination of the others).
    """
    n = draw(st.integers(1, 5))
    rows = [[draw(RATIONALS) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["any", "zero-corner", "singular"]))
    if shape == "zero-corner":
        rows[0][0] = 0
    elif shape == "singular":
        cs = [draw(RATIONALS) for _ in range(n - 1)]
        rows[-1] = [sum(c * row[j] for c, row in zip(cs, rows)) for j in range(n)]
    m = draw(st.integers(1, 3))
    return Matrix(rows), Matrix([[draw(RATIONALS) for _ in range(m)] for _ in range(n)])


@st.composite
def sparse_products(draw):
    """(A, B): exact m x k and k x n factors, sizes 1..5, mostly zero, with some all-zero rows."""
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    entries = st.one_of(st.just(0), st.just(0), RATIONALS)

    def sparse(rows, cols):
        zero = draw(st.sets(st.integers(0, rows - 1)))
        return Matrix([[0 if i in zero else draw(entries) for _ in range(cols)] for i in range(rows)])

    return sparse(m, k), sparse(k, n)


def diag(*vals):
    n = len(vals)
    return Matrix([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


class TestSchurComplement:
    def test_two_by_two(self):
        out = schur_complement(Matrix([[2, 1], [1, 1]]), 1)
        assert out.rows == [[F(1, 2)]]

    def test_block_diagonal(self):
        out = schur_complement(Matrix([[1, 0], [0, 5]]), 1)
        assert out.rows == [[5]]

    def test_identity(self):
        out = schur_complement(Matrix.identity(3), 2)
        assert out.rows == [[1]]

    def test_singular_block(self):
        with pytest.raises(SingularBlock):
            schur_complement(Matrix([[0, 1], [1, 0]]), 1)


class TestLdu:
    def test_two_by_two(self):
        l, d, u = ldu_factorize(Matrix([[2, 1], [1, 1]]))
        assert l.rows == [[1, 0], [F(1, 2), 1]]
        assert d == [2, F(1, 2)]
        assert u.rows == [[1, F(1, 2)], [0, 1]]

    def test_diagonal_passthrough(self):
        g = diag(3, 2, F(2, 3))
        l, d, u = ldu_factorize(g)
        assert l.rows == Matrix.identity(3).rows
        assert u.rows == Matrix.identity(3).rows
        assert d == [3, 2, F(2, 3)]

    def test_zero_leading_minor(self):
        with pytest.raises(NotQuasiDefinite) as exc:
            ldu_factorize(Matrix([[0, 1], [1, 0]]))
        assert exc.value.index == 0

    def test_final_zero_pivot_flagged(self):
        g = Matrix([[2, 2], [2, 2]])
        with pytest.raises(NotQuasiDefinite) as exc:
            ldu_factorize(g)
        assert exc.value.index == 1
        l, d, u = ldu_factorize(g, allow_final_zero=True)
        assert d == [2, 0]
        assert l.rows == [[1, 0], [1, 1]]

    def test_reconstruction_random(self):
        rng = random.Random(11)
        for n in range(1, 11):
            g = random_quasi_definite(rng, n)
            l, d, u = ldu_factorize(g)
            assert (l @ diag(*d) @ u).rows == g.rows

    def test_pivots_are_minor_ratios(self):
        rng = random.Random(12)
        for n in (2, 4, 6):
            g = random_quasi_definite(rng, n)
            _, d, _ = ldu_factorize(g)
            prev = 1
            for k in range(n):
                cur = det(g.leading(k + 1))
                assert d[k] * prev == cur
                prev = cur


class TestQuasiDet:
    def test_heredity(self):
        a = Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
        step1 = schur_complement(a, 1)
        nested = schur_complement(step1, 1)
        single = schur_complement(a, 2)
        assert nested.rows == single.rows == [[F(4, 3)]]

    def test_block_diagonal(self):
        m = Matrix([[3, 0, 0], [0, 2, 0], [0, 0, F(5, 7)]])
        assert schur_complement(m, 2).rows == [[F(5, 7)]]

    def test_heredity_random(self):
        rng = random.Random(13)
        for _ in range(5):
            a = random_quasi_definite(rng, 4)
            nested = schur_complement(schur_complement(a, 1), 1)
            assert nested.rows == schur_complement(a, 2).rows


class TestOperators:
    """The dense operator oracles (conftest) that the banded routes are held against."""

    def test_shift(self):
        lam = shift_matrix(3)
        assert lam.rows == [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        assert shift_transpose_matrix(3).rows == lam.transpose().rows

    def test_derivative(self):
        d = derivative_matrix(4)
        assert d.rows == [[0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0]]

    def test_commutator_identity(self):
        for n in (3, 5, 8):
            lam, d = shift_matrix(n), derivative_matrix(n)
            comm = (lam @ d) - (d @ lam)
            assert comm.leading(n - 1).rows == Matrix.identity(n - 1).rows

    def test_polynomial_linear(self):
        lam = shift_matrix(4)
        out = polynomial_of_operator([-2, 1], lam)
        want = lam - diag(2, 2, 2, 2)
        assert out.rows == want.rows

    def test_polynomial_constant(self):
        assert polynomial_of_operator([1], shift_matrix(3)).rows == Matrix.identity(3).rows

    def test_polynomial_quadratic(self):
        lam = shift_matrix(3)
        out = polynomial_of_operator([1, 0, -1], lam)
        want = Matrix.identity(3) - (lam @ lam)
        assert out.rows == want.rows


class TestCharPoly:
    def test_diagonal(self):
        assert char_poly(diag(1, 2)) == [2, -3, 1]

    def test_offdiag(self):
        assert char_poly(Matrix([[0, 1], [F(2, 3), 0]])) == [F(-2, 3), 0, 1]

    def test_zero_matrix(self):
        assert char_poly(Matrix.zeros(2)) == [0, 0, 1]

    def test_cayley_hamilton_random(self):
        rng = random.Random(14)
        m = random_quasi_definite(rng, 4)
        assert polynomial_of_operator(char_poly(m), m).rows == Matrix.zeros(4).rows

    @given(lower_hessenberg())
    def test_hessenberg_recurrence_matches_oracle(self, m):
        assert_equals_oracle(m)

    @given(exact_blocks(), st.sampled_from([1, 2]))
    def test_spectral_truncations_match_oracle(self, g, side):
        j = biorth.spectral_matrix(biorth.build_families(g), side).j
        for k in range(j.shape[0] + 1):
            assert_equals_oracle(j.leading(k))

    @pytest.mark.parametrize("above", [False, True], ids=["dense", "one-entry-above-band"])
    def test_non_hessenberg_takes_the_dense_route(self, above):
        m = random_quasi_definite(random.Random(21), 5)
        if above:
            m = Matrix([[v if j <= i + 1 else 0 for j, v in enumerate(row)]
                        for i, row in enumerate(m.rows)])
            m.rows[0][2] = F(-5, 2)
        assert_equals_oracle(m)

    def test_hessenberg_route_makes_no_product(self, monkeypatch):
        # A full lower Hessenberg J from a non-Hankel table: O(n^4) products must not come back.
        j = biorth.spectral_matrix(biorth.build_families(random_quasi_definite(random.Random(22), 7)), 1).j
        assert all(j.rows[i][0] != 0 for i in range(j.shape[0]))
        calls = []
        product = Matrix.__matmul__

        def counted(a, b):
            calls.append(a.shape)
            return product(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        char_poly(j)
        assert calls == []
        faddeev_leverrier(j)
        assert len(calls) == j.shape[0] - 1


class TestSolveInverse:
    def test_inverse_roundtrip(self):
        rng = random.Random(15)
        m = random_quasi_definite(rng, 5)
        assert (solve(m, Matrix.identity(5)) @ m).rows == Matrix.identity(5).rows

    def test_solve_matches_inverse(self):
        rng = random.Random(16)
        m = random_quasi_definite(rng, 4)
        b = Matrix([[1], [2], [3], [4]])
        x = solve(m, b)
        assert (m @ x).rows == b.rows

    def test_singular_raises(self):
        with pytest.raises(SingularTruncation):
            solve(Matrix([[1, 1], [1, 1]]), Matrix([[1], [0]]))

    def test_unit_lower_inverse(self):
        lo = Matrix([[1, 0, 0], [F(1, 2), 1, 0], [3, F(-2, 5), 1]])
        inv = unit_lower_inverse(lo)
        assert (lo @ inv).rows == Matrix.identity(3).rows

    @given(square_systems())
    @example((Matrix([[0, 1], [1, 0]]), Matrix([[1], [2]])))
    @example((Matrix([[0, 2, 1], [0, 1, 3], [F(1, 2), 0, 0]]), Matrix([[1], [0], [1]])))
    @example((Matrix([[1, 1], [1, 1]]), Matrix([[1], [0]])))
    @example((Matrix([]), Matrix([])))  # 0 x 0: det 1 and the empty solution
    def test_solve_and_det_match_oracles(self, system):
        a, b = system
        want = cofactor_det(a.rows)
        assert repr(det(a)) == repr(canon(want))
        v = [row[0] for row in b.rows]
        if want == 0:
            with pytest.raises(SingularTruncation):
                solve(a, b)
            with pytest.raises(SingularTruncation):
                solve_vector(a, v)
            return
        x = solve(a, b)
        assert (a @ x).rows == b.rows
        assert repr(x) == repr(x.canon())
        assert solve_vector(a, v) == [row[0] for row in x.rows]

    @given(square_systems().filter(lambda s: s[0].shape[0] >= 2), st.data())
    def test_schur_complement_matches_det(self, system, data):
        # det M = det A det(M / A), and a singular A is a SingularBlock.
        m = system[0]
        p = data.draw(st.integers(1, m.shape[0] - 1))
        lead = cofactor_det(m.leading(p).rows)
        if lead == 0:
            with pytest.raises(SingularBlock):
                schur_complement(m, p)
            return
        assert cofactor_det(m.rows) == lead * cofactor_det(schur_complement(m, p).rows)

    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    def test_det_agrees_with_rule(self, vals):
        a, b, c = vals
        m = Matrix([[a, b], [c, 5]])
        assert det(m) == 5 * a - b * c


class TestMatmul:
    @given(sparse_products())
    def test_equals_the_dense_triple_loop(self, factors):
        a, b = factors
        (m, k), (_, n) = a.shape, b.shape
        want = [[sum(a.rows[i][t] * b.rows[t][j] for t in range(k)) for j in range(n)]
                for i in range(m)]
        assert (a @ b).rows == want

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Matrix.identity(2) @ Matrix.identity(3)


class TestHankelDetection:
    def test_hankel_true(self):
        assert is_hankel(Matrix([[1, 2, 3], [2, 3, 4], [3, 4, 5]]))

    def test_symmetric_not_hankel(self):
        assert not is_hankel(Matrix([[1, 2, 3], [2, 9, 4], [3, 4, 5]]))

    def test_equal_distinct_objects(self):
        # Equal values need not be one object: identity only short-cuts equality.
        g = Matrix([[1, F(1, 2)], [F(2, 4), 3]])
        assert g.rows[0][1] is not g.rows[1][0]
        assert is_hankel(g)

    def test_breaks_at_last_antidiagonal_entry(self):
        assert is_hankel(Matrix([[1, 2, 3], [2, 3, 4], [3, 4, 5]]))
        assert not is_hankel(Matrix([[1, 2, 3], [2, 3, 4], [3, 9, 5]]))

    def test_two_by_three(self):
        assert is_hankel(Matrix([[1, 2, 3], [2, 3, 9]]))
        assert not is_hankel(Matrix([[1, 2, 3], [2, 4, 4]]))
        assert not is_hankel(Matrix([[1, 2, 3], [9, 3, 4]]))

    def test_empty_block(self):
        assert is_hankel(Matrix([]))


class TestHankelMoments:
    def test_first_row_then_last_column(self):
        g = Matrix.from_function(3, 3, lambda i, j: F(1, i + j + 1))
        assert hankel_moments(g) == [F(1, k + 1) for k in range(5)]

    def test_keeps_the_scalar_objects(self):
        g = Matrix([[1, F(1, 2)], [F(1, 2), 2.5]])
        ms = hankel_moments(g)
        assert [type(v) for v in ms] == [int, F, float]
        assert ms[1] is g.rows[0][1] and ms[2] is g.rows[1][1]

    def test_edge_sizes(self):
        assert hankel_moments(Matrix([[7]])) == [7]
        assert hankel_moments(Matrix([])) == []
