"""Gauss quadrature rules: nodes, weights, exactness, fallback paths."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from opgb import biorth, gram, quad
from opgb.errors import InsufficientTruncation, NonPositive, NotHankel, NotQuasiDefinite
from opgb.numlin import Matrix
from opgb.poly import poly_eval

from conftest import ROOT, run_child

F = Fraction


@st.composite
def positive_measures(draw):
    qs = draw(st.lists(st.integers(-4, 4), min_size=3, max_size=5, unique=True))
    ws = [draw(st.integers(1, 4)) for _ in qs]
    return gram.DiscreteMeasure.from_pairs(list(zip(qs, ws)))


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def signed_rules(draw):
    """(measure, n, k): rational atoms with weights of either sign, n <= 8, k < n."""
    qs = draw(st.lists(rationals, min_size=1, max_size=8, unique=True))
    m = gram.DiscreteMeasure.from_pairs([(q, draw(rationals.filter(bool))) for q in qs])
    n = draw(st.integers(2, min(8, len(qs) + 1)))
    return m, n, draw(st.integers(1, n - 1))


@st.composite
def positive_rules(draw):
    """(measure, k): distinct rational atoms with positive weights, k below the atom count."""
    qs = draw(st.lists(rationals, min_size=2, max_size=8, unique=True))
    ws = draw(st.lists(rationals.filter(lambda w: w > 0), min_size=len(qs), max_size=len(qs)))
    return gram.DiscreteMeasure.from_pairs(zip(qs, ws)), draw(st.integers(1, len(qs) - 1))


class TestRuleValues:
    def test_three_atom_two_point(self, fam3):
        rule = quad.gauss_rule(fam3, 2)
        root = math.sqrt(2.0 / 3.0)
        assert rule.method == "eigh"
        assert rule.nodes == pytest.approx((-root, root), abs=1e-12)
        assert rule.weights == pytest.approx((1.5, 1.5), abs=1e-12)

    def test_legendre_two_point(self, legendre):
        f = biorth.family_from_measure(legendre, 3)
        rule = quad.gauss_rule(f, 2)
        assert rule.nodes == pytest.approx((-0.57735026919, 0.57735026919), abs=1e-10)
        assert rule.weights == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_one_point_centroid(self, atoms6, fam6):
        ms = gram.moments_discrete(atoms6, 1)
        rule = quad.gauss_rule(fam6, 1)
        assert rule.nodes[0] == pytest.approx(float(F(ms[1], 1) / ms[0]), abs=1e-14)
        assert rule.weights[0] == pytest.approx(float(ms[0]), abs=1e-14)


class TestExactness:
    def test_three_atom(self, atoms3, fam3):
        rule = quad.gauss_rule(fam3, 2)
        ms = gram.moments_discrete(atoms3, 3)
        assert quad.exactness_check(rule, ms) < 1e-12

    def test_legendre_four_point(self, legendre):
        f = biorth.family_from_measure(legendre, 5)
        rule = quad.gauss_rule(f, 4)
        ms = gram.moments_classical(legendre, 7)
        assert quad.exactness_check(rule, ms) < 1e-12

    def test_perturbed_node_fails(self, legendre):
        f = biorth.family_from_measure(legendre, 5)
        rule = quad.gauss_rule(f, 4)
        bad = quad.QuadratureRule(
            nodes=(rule.nodes[0] + 0.05,) + rule.nodes[1:],
            weights=rule.weights,
            order=rule.order,
            method=rule.method,
        )
        ms = gram.moments_classical(legendre, 7)
        assert quad.exactness_check(bad, ms) > 1e-3

    def test_discrete_six_atoms(self, atoms6, fam6):
        for k in (2, 3, 4, 5):
            rule = quad.gauss_rule(fam6, k)
            ms = gram.moments_discrete(atoms6, 2 * k - 1)
            assert quad.exactness_check(rule, ms) < 1e-9


class TestNodeProperties:
    def test_nodes_are_poly_roots(self, fam6):
        for k in (2, 3, 4):
            rule = quad.gauss_rule(fam6, k)
            coeffs = np.array([float(c) for c in fam6.poly1(k)])
            roots = np.sort(np.polynomial.polynomial.polyroots(coeffs).real)
            assert np.max(np.abs(np.array(rule.nodes) - roots)) < 1e-10

    def test_simple_and_increasing(self, fam8):
        for k in range(2, 8):
            rule = quad.gauss_rule(fam8, k)
            diffs = np.diff(rule.nodes)
            assert np.all(diffs > 1e-8)

    def test_containment_in_support(self, atoms6, fam6):
        lo = float(min(a.q for a in atoms6.atoms))
        hi = float(max(a.q for a in atoms6.atoms))
        for k in range(1, 6):
            rule = quad.gauss_rule(fam6, k)
            assert all(lo - 1e-12 <= x <= hi + 1e-12 for x in rule.nodes)

    def test_positive_weights(self, fam8):
        for k in range(1, 8):
            rule = quad.gauss_rule(fam8, k)
            assert all(w > 0 for w in rule.weights)


class TestAtomReproduction:
    def test_integer_atoms(self, atoms3):
        f = biorth.build_families(gram.gram_matrix(atoms3, 4), allow_final_zero=True)
        rule = quad.gauss_rule(f, 3)
        assert rule.nodes == pytest.approx((-1.0, 0.0, 1.0), abs=1e-10)
        assert rule.weights == pytest.approx((1.0, 1.0, 1.0), abs=1e-10)

    def test_rational_atoms(self):
        m = gram.DiscreteMeasure.from_pairs([(F(-1, 2), 2), (F(1, 3), 1), (3, F(1, 2))])
        f = biorth.build_families(gram.gram_matrix(m, 4), allow_final_zero=True)
        rule = quad.gauss_rule(f, 3)
        assert rule.nodes == pytest.approx((-0.5, 1.0 / 3.0, 3.0), abs=1e-10)
        assert rule.weights == pytest.approx((2.0, 1.0, 0.5), abs=1e-10)

    def test_atoms_past_float_range_of_h(self):
        # H_k grows like 10^(200 k): the sign of H is read exactly, never through float(H_k).
        scale = 10**100
        m = gram.DiscreteMeasure.from_pairs([(q * scale, 1) for q in (-2, -1, 1, 2, 3)])
        rule = quad.gauss_rule(biorth.build_families(gram.gram_matrix(m, 5)), 3)
        assert rule.method == "eigh" and sum(rule.weights) == pytest.approx(5)
        f = biorth.build_families(gram.gram_matrix(m, 6), allow_final_zero=True)
        rule = quad.gauss_rule(f, 5)
        assert rule.nodes == pytest.approx([q * 1e100 for q in (-2, -1, 1, 2, 3)], rel=1e-12)
        assert rule.weights == pytest.approx([1.0] * 5, abs=1e-10)

    def test_atoms_past_float_range_of_b(self):
        # b_k near 10^400 has no float: the band is scaled by a power of two read off its
        # exact entries, so the rule answers.
        m = gram.DiscreteMeasure.from_pairs([(q * 10**200, 1) for q in (-2, -1, 1, 2, 3)])
        f = biorth.build_families(gram.gram_matrix(m, 6), allow_final_zero=True)
        rule = quad.gauss_rule(f, 5)
        assert rule.nodes == pytest.approx([q * 1e200 for q in (-2, -1, 1, 2, 3)], rel=1e-12)
        assert rule.weights == pytest.approx([1.0] * 5, rel=1e-12)

    def test_values_past_float_range_raise(self):
        # H_0 = 2 10^400 has no float: OverflowError, never inf or nan.
        m = gram.DiscreteMeasure.from_pairs([(1, 10**400), (2, 10**400)])
        with pytest.raises(OverflowError):
            quad.gauss_rule(biorth.build_families(gram.gram_matrix(m, 2)), 1)
        # A node of 10^400 has none either.
        m = gram.DiscreteMeasure.from_pairs([(10**400, 1), (2 * 10**400, 1)])
        with pytest.raises(OverflowError):
            quad.gauss_rule(biorth.build_families(gram.gram_matrix(m, 2)), 1)


class TestFallbackPaths:
    def test_companion_method(self):
        # H = (-2, -1/2): every b_j > 0, so the balanced band is symmetric.
        m = gram.DiscreteMeasure.from_pairs([(0, -1), (1, 2), (3, -3)])
        f = biorth.build_families(gram.gram_matrix(m, 3))
        assert all(v < 0 for v in f.h[:2])
        rule = quad.gauss_rule(f, 2)
        assert rule.method == "eigh"
        assert quad.exactness_check(rule, gram.moments_discrete(m, 3)) < 1e-9
        # H = (2, -12, 12): b_1 = -6, so the nodes come from the Sturm chain of
        # P_2 = x^2 - 2x - 2, with zeros and weights 1 -+ sqrt(3).
        m = gram.DiscreteMeasure.from_pairs([(0, -2), (1, 2), (3, 2)])
        f = biorth.build_families(gram.gram_matrix(m, 3))
        rule = quad.gauss_rule(f, 2)
        assert rule.method == "companion"
        root = math.sqrt(3)
        assert rule.nodes == pytest.approx((1 - root, 1 + root), rel=1e-15)
        assert rule.weights == pytest.approx((1 - root, 1 + root), rel=1e-14)

    def test_double_root_rejected(self):
        # m = (1, 0, -1, -2, 0): H = (1, -1, 3) and P_2 = (x - 1)^2, where K_1(1, 1) = 0.
        f = biorth.build_families(Matrix([[1, 0, -1], [0, -1, -2], [-1, -2, 0]]))
        assert f.poly1(2) == [1, -2, 1]
        with pytest.raises(NonPositive, match="degenerate node set"):
            quad.gauss_rule(f, 2)

    def test_complex_roots_rejected(self):
        m = gram.DiscreteMeasure.from_pairs([(0, 1), (1, -3), (2, 1)])
        f = biorth.build_families(gram.gram_matrix(m, 3))
        with pytest.raises(NonPositive, match="non-real roots"):
            quad.gauss_rule(f, 2)

    def test_not_hankel(self, bivariate2):
        f = biorth.build_families(gram.gram_matrix(bivariate2, 2))
        with pytest.raises(NotHankel):
            quad.gauss_rule(f, 1)

    def test_truncation_guard(self, fam3):
        with pytest.raises(InsufficientTruncation):
            quad.gauss_rule(fam3, 3)

    def test_bad_order(self, fam3):
        with pytest.raises(ValueError):
            quad.gauss_rule(fam3, 0)


class TestLargeRules:
    """Rules past k = 12, where the old Vandermonde cross-check refused."""

    @pytest.mark.parametrize("family, alpha, qtype", [
        ("hermite", 0, "hermite"), ("laguerre", F(1, 2), "glaguerre"), ("jacobi", F(1, 2), "jacobi"),
    ])
    def test_mpmath_oracle_k40(self, family, alpha, qtype):
        mpmath = pytest.importorskip("mpmath")
        weight = gram.ClassicalWeight(family, alpha, 0)
        rule = quad.gauss_rule(biorth.family_from_measure(weight, 41), 40)
        assert rule.method == "eigh"
        with mpmath.workdps(30):
            xs, ws = mpmath.gauss_quadrature(40, qtype, alpha=mpmath.mpf(1) / 2, beta=0)
        mass = float(sum(ws))
        assert mass == pytest.approx(weight.mass(), rel=1e-14)
        assert rule.nodes == pytest.approx([float(x) for x in xs], rel=1e-12)
        # Classical moments are normalized to m_0 = 1.
        assert [w * mass for w in rule.weights] == pytest.approx([float(w) for w in ws], abs=1e-12 * mass)

    @pytest.mark.parametrize("family, alpha, k", [("laguerre", F(1, 2), 30), ("hermite", 0, 30)])
    def test_weights_are_exact_christoffel_numbers(self, family, alpha, k):
        # The CD kernel in exact arithmetic at the float nodes: an oracle
        # independent of the float recurrence that gauss_rule checks with.
        f = biorth.family_from_measure(gram.ClassicalWeight(family, alpha), k + 1)
        rule = quad.gauss_rule(f, k)
        for x, w in zip(rule.nodes, rule.weights):
            x = F(x)
            assert w == pytest.approx(float(1 / biorth.cd_kernel(f, k - 1, x, x)), abs=1e-12)

    @pytest.mark.parametrize("family, alpha, qtype, k", [
        ("laguerre", F(1, 2), "glaguerre", 60), ("hermite", 0, "hermite", 40),
        ("jacobi", F(1, 2), "jacobi", 40),
    ])
    def test_every_weight_to_relative_accuracy(self, family, alpha, qtype, k):
        # Each weight, the smallest (7e-94 at Laguerre k = 60) included, against 60 digits.
        mpmath = pytest.importorskip("mpmath")
        rule = quad.gauss_rule(biorth.family_from_measure(gram.ClassicalWeight(family, alpha, 0), k + 1), k)
        with mpmath.workdps(60):
            _, ws = mpmath.gauss_quadrature(k, qtype, alpha=mpmath.mpf(1) / 2, beta=0)
            mass = mpmath.fsum(ws)  # classical moments are normalized to m_0 = 1
            want = [float(w / mass) for w in ws]
        assert rule.weights == pytest.approx(want, rel=1e-12, abs=0)


class TestProperties:
    @given(positive_measures())
    def test_two_point_rules_behave(self, m):
        f = biorth.build_families(gram.gram_matrix(m, 3))
        rule = quad.gauss_rule(f, 2)
        lo = min(float(a.q) for a in m.atoms)
        hi = max(float(a.q) for a in m.atoms)
        assert all(lo - 1e-9 <= x <= hi + 1e-9 for x in rule.nodes)
        assert all(w > 0 for w in rule.weights)
        assert quad.exactness_check(rule, gram.moments_discrete(m, 3)) < 1e-9

    @given(positive_rules())
    def test_nodes_interlace_next_zeros(self, data):
        # Exact P_{k+1} at each node is nonzero and alternates in sign, negative at the last
        # node: the k nodes, the zeros of P_k, strictly interlace the k + 1 zeros of P_{k+1}.
        m, k = data
        f = biorth.build_families(gram.gram_matrix(m, k + 2), allow_final_zero=True)
        rule = quad.gauss_rule(f, k)
        values = [poly_eval(f.poly1(k + 1), F(x)) for x in rule.nodes]
        assert all(v != 0 for v in values)
        assert [v > 0 for v in values] == [(k - l) % 2 == 0 for l in range(k)]

    @given(signed_rules())
    def test_signed_weights_rule_or_refusal(self, data):
        sympy = pytest.importorskip("sympy")
        m, n, k = data
        try:
            f = biorth.build_families(gram.gram_matrix(m, n), allow_final_zero=True)
        except NotQuasiDefinite:
            assume(False)
        x = sympy.Symbol("x")
        pk = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in map(F, reversed(f.poly1(k)))], x)
        distinct_real = pk.sqf_part().count_roots()
        try:
            rule = quad.gauss_rule(f, k)
        except NonPositive:
            assert distinct_real < k
            return
        assert distinct_real == k
        nodes, weights = np.array(rule.nodes), np.array(rule.weights)
        for j, mj in enumerate(gram.moments_discrete(m, 2 * k - 1)):
            terms = weights * nodes**j
            assert abs(terms.sum() - float(mj)) <= 1e-9 * np.abs(terms).sum()

    @given(positive_rules())
    def test_chain_and_band_counts_agree(self, data):
        # The exact Sturm chain of P_k and the float LDL^T count bisect to the same nodes.
        m, k = data
        f = biorth.build_families(gram.gram_matrix(m, k + 1), allow_final_zero=True)
        b, a = biorth.three_term_coeffs(f)
        e, diag, sub = quad._scaled(a[:k], b[:k])
        band = quad._bisect(quad._band_count(diag, sub), k, -4.0, 4.0)
        chain = quad._bisect(quad._chain_count(f.poly1(k), e), k, -4.0, 4.0)
        assert chain == pytest.approx(band, rel=1e-13)

    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=7).filter(lambda p: p[-1] != 0),
           st.integers(-64, 64))
    def test_sturm_count_matches_sympy(self, p, sixteenths):
        # Any integer p, either sign of leading coefficient: refused unless its zeros are
        # deg p distinct reals, and then counted exactly at or below t.
        sympy = pytest.importorskip("sympy")
        poly = sympy.Poly(list(reversed(p)), sympy.Symbol("x"))
        distinct_real = poly.sqf_part().count_roots()
        try:
            count = quad._chain_count(p, 0)
        except NonPositive:
            assert distinct_real < len(p) - 1
            return
        assert distinct_real == len(p) - 1
        t = sixteenths / 16
        assert count(t) == poly.count_roots(None, sympy.Rational(sixteenths, 16))


class TestSpectralMoments:
    def test_truncated_powers_match_full(self, atoms6, fam6):
        k = 4
        jm_full = biorth.spectral_matrix(fam6, 1).j
        jm_k = jm_full.leading(k)
        for j in range(2 * k):
            full = (biorth.moment_from_spectral(fam6, j) if j <= 2 * (fam6.size - 1) - 1
                    else None)
            power = np.linalg.matrix_power(
                np.array([[float(v) for v in row] for row in jm_k.rows]), j
            )
            got = power[0, 0] * float(fam6.h[0])
            if j <= 2 * k - 1:
                assert got == pytest.approx(float(gram.moments_discrete(atoms6, j)[j]), rel=1e-10)
            if full is not None:
                assert full == gram.moments_discrete(atoms6, j)[j]


class TestNoNumpy:
    def test_rules_and_cli_never_load_numpy(self, tmp_path):
        spec = tmp_path / "hermite.json"
        spec.write_text(json.dumps({"type": "classical", "family": "hermite"}))
        proc = run_child(["-c", f"""
import sys
import opgb, opgb.cli
from opgb import gram
f = opgb.family_from_measure(opgb.ClassicalWeight("hermite"), 5)
assert opgb.gauss_rule(f, 4).method == "eigh"
m = gram.DiscreteMeasure.from_pairs([(0, -2), (1, 2), (3, 2)])
assert opgb.gauss_rule(opgb.build_families(gram.gram_matrix(m, 3)), 2).method == "companion"
assert opgb.cli.main(["quadrature", "--spec", {str(spec)!r}, "--k", "3"]) == 0
print("numpy" in sys.modules)
"""])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestQuadratureTableScript:
    def test_reproduces_atoms_at_default_k_max(self, tmp_path):
        atoms = [("-2", "1"), ("-1/2", "3"), ("1/3", "2"), ("1", "1/2"), ("5/2", "1")]
        spec = tmp_path / "atoms5.json"
        spec.write_text(json.dumps({"type": "discrete", "atoms": [{"q": q, "w": w} for q, w in atoms]}))
        proc = run_child([str(ROOT / "scripts" / "quadrature_table.py"), "--spec", str(spec), "--reproduce"])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert "k = 5  (eigh)" in lines
        rows = lines[lines.index("atom reproduction, k = 5") + 1:]
        assert len(rows) == 5
        for row, (q, w) in zip(rows, atoms):
            node, _, weight, _ = (float(v) for v in re.findall(r"[+-]\d+\.\d+", row))
            assert node == pytest.approx(float(F(q)), abs=1e-9)
            assert weight == pytest.approx(float(F(w)), abs=1e-9)

    def test_refusal_is_one_line_not_a_traceback(self, tmp_path):
        spec = tmp_path / "deriv.json"
        spec.write_text(json.dumps({"type": "discrete", "atoms": [
            {"q": "0", "w": "1"}, {"q": "1", "w": "2", "d": 1}, {"q": "2", "w": "1"}]}))
        proc = run_child([str(ROOT / "scripts" / "quadrature_table.py"), "--spec", str(spec)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "error: quasi-definiteness fails at index 1: leading principal minor of order 2 vanishes"]

    def test_reproduce_refuses_derivative_atoms(self, tmp_path):
        # A delta' atom raises the rank past the atom count: no rule reproduces it.
        spec = tmp_path / "deriv.json"
        spec.write_text(json.dumps({"type": "discrete", "atoms": [
            {"q": "0", "w": "1"}, {"q": "1", "w": "1/3", "d": 1}, {"q": "3", "w": "2"}]}))
        proc = run_child([str(ROOT / "scripts" / "quadrature_table.py"), "--spec", str(spec), "--reproduce"])
        assert proc.returncode == 1
        assert "needs a discrete measure spec of plain point masses" in proc.stderr
        assert "atom reproduction" not in proc.stdout
