"""Moment generation, Gram assembly, Cauchy transforms, and spec parsing."""

from fractions import Fraction

import math

import pytest
from hypothesis import given, strategies as st

from opgb import gram
from opgb.errors import InsufficientTruncation, PoleAtAtom, UnsupportedMeasure
from opgb.numlin import Matrix, is_hankel
from opgb.scalars import canon, format_scalar, parse_scalar

F = Fraction


def cauchy_moments_direct(m, a, j_max):
    """Oracle: c_j(a) by per-atom summation, independent of the recurrence.

    The d-th derivative of x^j/(a-x) at q is expanded by the Leibniz rule,
    term t contributing C(d,t) j!/(j-t)! q^{j-t} (d-t)! (a-q)^{-(d-t)-1}.
    """
    out = []
    for j in range(j_max + 1):
        acc = 0
        for atom in m.atoms:
            if atom.q == a:
                raise PoleAtAtom(f"Cauchy point {a} sits on an atom")
            for t in range(min(atom.d, j) + 1):
                acc += F(atom.w * math.comb(atom.d, t) * math.perm(j, t) * atom.q ** (j - t)
                         * math.factorial(atom.d - t)) / (a - atom.q) ** (atom.d - t + 1)
        out.append(acc)
    return out


def pair_power(atom, j):
    """Oracle: one atom's pairing with x^j, w * j!/(j-d)! * q^(j-d) (zero for j < d), in Fractions."""
    if j < atom.d:
        return 0
    return F(atom.w) * math.perm(j, atom.d) * F(atom.q) ** (j - atom.d)


atoms_mixed = st.lists(st.builds(
    gram.Atom,
    st.builds(F, st.integers(-20, 20), st.integers(1, 7)),
    st.fractions(min_value=-5, max_value=5, max_denominator=9),
    st.sampled_from([0, 1, 2]),
), min_size=1, max_size=6)


def hankel_pairing(p, q, ms):
    """Oracle: the bilinear pairing sum p_i q_j m_{i+j} of two coefficient lists."""
    return sum(p[i] * q[j] * ms[i + j] for i in range(len(p)) for j in range(len(q)))


class TestMomentsDiscrete:
    def test_three_atoms(self, atoms3):
        assert gram.moments_discrete(atoms3, 4) == [3, 0, 2, 0, 2]

    def test_point_mass_powers(self):
        m = gram.DiscreteMeasure.from_pairs([(2, 1)])
        assert gram.moments_discrete(m, 3) == [1, 2, 4, 8]

    def test_derivative_atom(self):
        m = gram.DiscreteMeasure((gram.Atom(1, 1, 1),))
        assert gram.moments_discrete(m, 2) == [0, 1, 2]

    def test_second_derivative_atom(self):
        m = gram.DiscreteMeasure((gram.Atom(2, 1, 2),))
        assert gram.moments_discrete(m, 3) == [0, 0, 2, 12]

    @given(atoms_mixed, st.integers(0, 12))
    def test_matches_per_atom_oracle(self, atoms, j_max):
        # q denominators 1..7, negative and integral q, rational w, d in {0, 1, 2}.
        want = [canon(sum(pair_power(a, j) for a in atoms)) for j in range(j_max + 1)]
        got = gram.moments_discrete(gram.DiscreteMeasure(tuple(atoms)), j_max)
        assert got == want
        assert repr(got) == repr(want)

    def test_float_atom_sums_its_exact_value(self):
        # A float q or w is its exact binary value (scalars.canon), so 0.1 is Fraction(0.1).
        m = gram.DiscreteMeasure((gram.Atom(0.1, 1), gram.Atom(1, 0.5, 1)))
        q = F(0.1)
        assert gram.moments_discrete(m, 3) == [1, q + F(1, 2), q**2 + 1, q**3 + F(3, 2)]


class TestMomentsClassical:
    def test_hermite(self, hermite):
        assert gram.moments_classical(hermite, 4) == [1, 0, F(1, 2), 0, F(3, 4)]

    def test_laguerre(self, laguerre0):
        assert gram.moments_classical(laguerre0, 3) == [1, 1, 2, 6]

    def test_legendre(self, legendre):
        assert gram.moments_classical(legendre, 4) == [1, 0, F(1, 3), 0, F(1, 5)]

    def test_jacobi_symmetric_odd_moments_vanish(self):
        w = gram.ClassicalWeight("jacobi", alpha=F(1, 2), beta=F(1, 2))
        ms = gram.moments_classical(w, 9)
        assert all(ms[j] == 0 for j in range(1, 10, 2))

    def test_laguerre_alpha_shift(self):
        w = gram.ClassicalWeight("laguerre", alpha=1)
        ms = gram.moments_classical(w, 3)
        assert ms == [1, 2, 6, 24]


class TestGramMatrix:
    def test_three_atoms(self, atoms3):
        g = gram.gram_matrix(atoms3, 2)
        assert g.rows == [[3, 0], [0, 2]]

    def test_hermite(self, hermite):
        g = gram.gram_matrix(hermite, 3)
        assert g.rows == [[1, 0, F(1, 2)], [0, F(1, 2), 0], [F(1, 2), 0, F(3, 4)]]

    def test_bivariate_passthrough(self, bivariate2):
        g = gram.gram_matrix(bivariate2, 2)
        assert g.rows == [[1, 0], [1, 1]]

    def test_table_moments(self):
        # A table has the moments its Hankel leading block holds: here m_0..m_2, not m_3.
        t = gram.BivariateTable(((1, 0, 1), (0, 1, 0), (2, 0, 3)))
        assert gram.moments(t, 2) == [1, 0, 1]
        with pytest.raises(UnsupportedMeasure):
            gram.moments(t, 3)
        hankel = gram.BivariateTable(((1, 0, 1), (0, 1, 0), (1, 0, 3)))
        assert gram.moments(hankel, 4) == [1, 0, 1, 0, 3]
        assert gram.moments(hankel, 3) == [1, 0, 1, 0]

    def test_bivariate_truncation_limit(self, bivariate2):
        with pytest.raises(InsufficientTruncation):
            gram.gram_matrix(bivariate2, 3)

    def test_hankel_property(self, atoms6, hermite):
        for source in (atoms6, hermite):
            g = gram.gram_matrix(source, 5)
            assert is_hankel(g)
            for i in range(4):
                for j in range(1, 5):
                    assert g.rows[i][j] == g.rows[i + 1][j - 1]


class TestCauchyMoments:
    def test_direct_sum(self, atoms3):
        c = gram.cauchy_moments(atoms3, 2, 1)
        assert c[0] == F(11, 6)
        assert c[1] == F(2, 3)

    def test_atom_at_origin(self):
        m = gram.DiscreteMeasure.from_pairs([(0, 1)])
        assert gram.cauchy_moments(m, 1, 3) == [1, 0, 0, 0]

    def test_pole_at_atom(self, atoms3):
        with pytest.raises(PoleAtAtom):
            gram.cauchy_moments(atoms3, 1, 2)

    def test_recurrence_equals_direct(self, atoms6, deriv_measure):
        for m in (atoms6, deriv_measure):
            for a in (F(7, 2), -4, F(22, 7)):
                rec = gram.cauchy_moments(m, a, 5)
                direct = cauchy_moments_direct(m, a, 5)
                assert rec == direct

    def test_from_c0_matches_exact(self, atoms3):
        c0 = gram.cauchy_moments(atoms3, 2, 0)[0]
        ms = gram.moments_discrete(atoms3, 4)
        assert gram.cauchy_from_c0(ms, 2, c0, 4) == gram.cauchy_moments(atoms3, 2, 4)

    def test_derivative_atom_pole(self):
        m = gram.DiscreteMeasure((gram.Atom(1, 1, 1),))
        with pytest.raises(PoleAtAtom):
            gram.cauchy_moments(m, 1, 1)


class TestClassicalWeight:
    def test_parameter_validation(self):
        with pytest.raises(UnsupportedMeasure):
            gram.ClassicalWeight("laguerre", alpha=-1)
        with pytest.raises(UnsupportedMeasure):
            gram.ClassicalWeight("jacobi", alpha=0, beta=F(-3, 2))
        with pytest.raises(UnsupportedMeasure):
            gram.ClassicalWeight("bessel")

    def test_mass_values(self, hermite, laguerre0, legendre):
        assert hermite.mass() == pytest.approx(math.sqrt(math.pi))
        assert laguerre0.mass() == pytest.approx(1.0)
        assert legendre.mass() == pytest.approx(2.0)

    def test_raise_parameters(self, legendre):
        up = gram.raise_parameters(legendre)
        assert (up.family, up.alpha, up.beta) == ("jacobi", 1, 1)
        herm = gram.raise_parameters(gram.ClassicalWeight("hermite"))
        assert herm.family == "hermite"


class TestHankelPairing:
    def test_biorthogonality_via_moments(self, atoms3):
        ms = gram.moments_discrete(atoms3, 4)
        p2 = [F(-2, 3), 0, 1]
        assert hankel_pairing(p2, [1], ms) == 0
        assert hankel_pairing(p2, [0, 1], ms) == 0
        assert hankel_pairing(p2, p2, ms) == F(2, 3)


class TestParseMeasureSpec:
    def test_discrete(self):
        m = gram.parse_measure_spec(
            {"type": "discrete", "atoms": [{"q": "-1", "w": "1"}, {"q": "1/2", "w": "2", "d": 1}]}
        )
        assert isinstance(m, gram.DiscreteMeasure)
        assert m.atoms[1].q == F(1, 2)
        assert m.atoms[1].d == 1

    def test_classical(self):
        w = gram.parse_measure_spec(
            {"type": "classical", "family": "jacobi", "alpha": "1/2", "beta": "0"}
        )
        assert isinstance(w, gram.ClassicalWeight)
        assert w.alpha == F(1, 2)

    def test_bivariate(self):
        t = gram.parse_measure_spec({"type": "bivariate", "entries": [["1", "0"], ["1", "1"]]})
        assert isinstance(t, gram.BivariateTable)
        assert t.entries == ((1, 0), (1, 1))

    @pytest.mark.parametrize(
        "spec",
        [
            "not a dict",
            {"type": "mystery"},
            {"type": "discrete"},
            {"type": "discrete", "atoms": []},
            {"type": "discrete", "atoms": "oops"},
            {"type": "discrete", "atoms": [[1, 2]]},
            {"type": "discrete", "atoms": [{"q": "1"}]},
            {"type": "discrete", "atoms": [{"q": "1", "w": "1", "d": -1}]},
            {"type": "classical", "family": "laguerre", "alpha": "-3/2"},
            {"type": "classical", "family": "gegenbauer"},
            {"type": "bivariate", "entries": [["1", "0"], ["1"]]},
            {"type": "bivariate", "entries": []},
        ],
    )
    def test_rejects_malformed(self, spec):
        with pytest.raises(UnsupportedMeasure):
            gram.parse_measure_spec(spec)


class TestScalars:
    @given(st.integers(-1000, 1000), st.integers(1, 400))
    def test_fraction_string_roundtrip(self, p, q):
        x = F(p, q)
        assert parse_scalar(format_scalar(x)) == x

    def test_parse_decimal_exact(self):
        assert parse_scalar("0.25") == F(1, 4)
        assert parse_scalar("-1/3") == F(-1, 3)
        assert parse_scalar("7") == 7
        assert isinstance(parse_scalar("7"), int)

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_rejected(self, value):
        with pytest.raises(TypeError):
            parse_scalar(value)

    def test_format_int_without_denominator(self):
        assert format_scalar(F(14, 7)) == "2"
        assert format_scalar(F(3, 6)) == "1/2"
