"""Gauss quadrature rules: nodes, weights, exactness, fallback paths."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import opgb
from opgb import biorth, gram, quad
from opgb.errors import InsufficientTruncation, NonPositive, NotHankel, NotQuasiDefinite, OpgbError
from opgb.numlin import Matrix

F = Fraction

ROOT = Path(__file__).resolve().parents[1]


def run_child(args):
    """Run a child interpreter that imports the same opgb as this process."""
    env = dict(os.environ, PYTHONPATH=str(Path(opgb.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


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


class TestFallbackPaths:
    def test_companion_method(self):
        m = gram.DiscreteMeasure.from_pairs([(0, -1), (1, 2), (3, -3)])
        f = biorth.build_families(gram.gram_matrix(m, 3))
        assert any(float(v) <= 0 for v in f.h[:2])
        rule = quad.gauss_rule(f, 2)
        assert rule.method == "companion"
        ms = gram.moments_discrete(m, 3)
        assert quad.exactness_check(rule, ms) < 1e-9

    def test_double_root_rejected(self):
        # m = (1, 0, -1, -2, 0): H = (1, -1, 3) and P_2 = (x - 1)^2, where K_1(1, 1) = 0.
        f = biorth.build_families(Matrix([[1, 0, -1], [0, -1, -2], [-1, -2, 0]]))
        assert f.poly1(2) == [1, -2, 1]
        with pytest.raises(NonPositive, match="degenerate node set"):
            quad.gauss_rule(f, 2)

    def test_complex_roots_rejected(self):
        m = gram.DiscreteMeasure.from_pairs([(0, 1), (1, -3), (2, 1)])
        f = biorth.build_families(gram.gram_matrix(m, 3))
        with pytest.raises(NonPositive):
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

    def test_disagreement_names_node_gap_and_tolerance(self, monkeypatch):
        eigh = np.linalg.eigh

        def skewed(t):
            vals, vecs = eigh(t)
            vecs[0, 2] *= 1.001
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        f = biorth.family_from_measure(gram.ClassicalWeight("hermite"), 7)
        with pytest.raises(OpgbError, match=r"Gauss weight 2 is \S+ from its Christoffel number "
                                            r"\(tolerance 1\.000e-10\)"):
            quad.gauss_rule(f, 6)


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

    @given(signed_rules())
    def test_signed_weights_rule_or_refusal(self, data):
        sympy = pytest.importorskip("sympy")
        m, n, k = data
        try:
            f = biorth.build_families(gram.gram_matrix(m, n), allow_final_zero=True)
        except NotQuasiDefinite:
            assume(False)
        try:
            rule = quad.gauss_rule(f, k)
        except NonPositive:
            x = sympy.Symbol("x")
            pk = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                             for c in map(F, reversed(f.poly1(k)))], x)
            assert pk.sqf_part().count_roots() < k
            return
        nodes, weights = np.array(rule.nodes), np.array(rule.weights)
        for j, mj in enumerate(gram.moments_discrete(m, 2 * k - 1)):
            terms = weights * nodes**j
            assert abs(terms.sum() - float(mj)) <= 1e-9 * np.abs(terms).sum()


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


class TestLazyNumpy:
    def test_numpy_loads_with_the_first_rule(self):
        proc = run_child(["-c", """
import sys
import opgb, opgb.cli
print("numpy" in sys.modules)
f = opgb.family_from_measure(opgb.ClassicalWeight("hermite"), 4)
opgb.gauss_rule(f, 2)
print("numpy" in sys.modules)
"""])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]


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
