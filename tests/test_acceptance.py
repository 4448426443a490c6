"""Fourteen acceptance checks, one per test, each reporting a PASS/FAIL line.

Every line lands in the terminal summary via the conftest hook. Checks
1-6 and 8-14 are exact (zero tolerance, rational arithmetic); check 7 is
the float quadrature gate at 1e-12.
"""

import functools
import json
import random
from fractions import Fraction
from math import factorial

import pytest

import conftest
from conftest import rational_points, random_measure
from opgb import biorth, classical, gram, quad, transforms
from opgb.cli import main
from opgb.errors import (
    NotQuasiDefinite,
    PoleAtAtom,
    SingularJetMatrix,
    ZeroAtRoot,
    ZeroDenominator,
)
from opgb.gram import ClassicalWeight, DiscreteMeasure
from opgb.numlin import faddeev_leverrier, is_hankel, unit_lower_inverse
from opgb.poly import poly_add, poly_eval, poly_mul, poly_scale, poly_sub, poly_trim
from opgb.transforms import GeronimusFreeData, PolyPerturbation

F = Fraction


def poly_deriv(p):
    """Ascending coefficients of p'."""
    return [i * c for i, c in enumerate(p)][1:] or [0]


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                conftest.ACCEPTANCE_LINES.append(
                    f"ACCEPTANCE {num}: FAIL - {label} ({type(exc).__name__})"
                )
                raise
            conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {num}: PASS - {label}")

        return wrapper

    return deco


def pochhammer(x, n):
    out = 1
    for i in range(n):
        out *= x + i
    return out


def form_value(g, px, py):
    return sum(
        px[i] * g.rows[i][j] * py[j] for i in range(len(px)) for j in range(len(py))
    )


NINE_UNIFORM = DiscreteMeasure.from_pairs([(i, 1) for i in range(-4, 5)])
NINE_WEIGHTED = DiscreteMeasure.from_pairs(
    [(F(i, 2), w) for i, w in zip(range(-4, 5), (1, 2, 1, 3, 1, 2, 1, 4, 1))]
)
NINE_RATIONAL = DiscreteMeasure.from_pairs(
    [(F(i, 4), F(1, d)) for i, d in zip(range(-4, 5), (2, 3, 1, 2, 1, 3, 1, 2, 4))]
)
QUAD_TIGHT = DiscreteMeasure.from_pairs([(F(i, 4), 1) for i in range(-4, 5)])
QUAD_TIGHT_10 = DiscreteMeasure.from_pairs(
    [(F(i, 6), w) for i, w in zip(range(-6, 4), (2, 1, 3, 1, 2, 1, 4, 1, 2, 1))]
)


@criterion(1, "Hermite norms H_n/H_0 = n!/2^n, exact, n <= 12")
def test_criterion_01_hermite_norms():
    f = biorth.family_from_measure(ClassicalWeight("hermite"), 13)
    for n in range(13):
        assert f.h[n] == F(factorial(n), 2**n) * f.h[0]


@criterion(2, "Laguerre S_{n+1,n} and H_n/H_0 closed forms, exact, alpha in {0,1/2,1}, n <= 10")
def test_criterion_02_laguerre_closed_forms():
    for alpha in (0, F(1, 2), 1):
        f = biorth.family_from_measure(ClassicalWeight("laguerre", alpha), 12)
        for n in range(11):
            assert f.s1.rows[n + 1][n] == -(n + 1) * (n + 1 + alpha)
            assert f.h[n] == factorial(n) * pochhammer(alpha + 1, n) * f.h[0]


@criterion(3, "Jacobi S_{n+1,n} closed form and Legendre H_1/H_0 = 1/3, exact, n <= 10")
def test_criterion_03_jacobi_closed_forms():
    for alpha, beta in ((0, 0), (1, 0), (F(1, 2), F(1, 2))):
        f = biorth.family_from_measure(ClassicalWeight("jacobi", alpha, beta), 12)
        for n in range(11):
            want = F((n + 1) * (alpha - beta), 1) / ((alpha + beta + 2) + 2 * n)
            assert f.s1.rows[n + 1][n] == want
    leg = biorth.family_from_measure(ClassicalWeight("jacobi", 0, 0), 2)
    assert leg.h[1] == F(1, 3) * leg.h[0]


@criterion(4, "operator diagonalization with eigenvalues n(A+(n-1)a), exact, n <= 12; "
              "per-family table variants recorded as a discrepancy, not matched")
def test_criterion_04_operator_diagonalization():
    weights = [
        ClassicalWeight("hermite"),
        ClassicalWeight("laguerre", 0),
        ClassicalWeight("laguerre", F(1, 2)),
        ClassicalWeight("jacobi", 0, 0),
        ClassicalWeight("jacobi", 1, 0),
    ]
    for w in weights:
        p = classical.pearson_data(w)
        f = biorth.family_from_measure(w, 13)
        t = classical.diff_operator_matrix(p, 13)
        conj = f.s1 @ t @ unit_lower_inverse(f.s1)
        for i in range(13):
            for j in range(13):
                want = classical.classical_eigenvalue(p, i) if i == j else 0
                assert conj.rows[i][j] == want


@criterion(5, "biorthogonality and orthogonality, exact, k,l <= 8, on 3 discrete + "
              "3 classical + 2 non-Hankel bivariate forms")
def test_criterion_05_biorthogonality():
    sources = [
        gram.gram_matrix(NINE_UNIFORM, 9),
        gram.gram_matrix(NINE_WEIGHTED, 9),
        gram.gram_matrix(NINE_RATIONAL, 9),
        gram.gram_matrix(ClassicalWeight("hermite"), 9),
        gram.gram_matrix(ClassicalWeight("laguerre", F(1, 2)), 9),
        gram.gram_matrix(ClassicalWeight("jacobi", 1, 0), 9),
    ]
    rng = random.Random(51)
    for _ in range(2):
        g = conftest.random_quasi_definite(rng, 9)
        assert not is_hankel(g)
        sources.append(g)
    for g in sources:
        f = biorth.build_families(g)
        for k in range(9):
            for l in range(9):
                want = f.h[k] if k == l else 0
                assert form_value(g, f.poly1(k), f.poly2(l)) == want
            for l in range(k):
                assert form_value(g, f.poly1(k), [0] * l + [1]) == 0
                assert form_value(g, [0] * l + [1], f.poly2(k)) == 0


@criterion(6, "char_poly(J^[k]) = P_k, exact, k <= 8")
def test_criterion_06_truncation_roots():
    for source in (NINE_UNIFORM, ClassicalWeight("hermite")):
        f = biorth.family_from_measure(source, 9)
        j = biorth.spectral_matrix(f, 1).j
        for k in range(1, 9):
            assert faddeev_leverrier(j.leading(k)) == f.poly1(k)


@criterion(7, "Gauss quadrature exactness < 1e-12 for j <= 2k-1, k <= 8, "
              "with simple contained nodes")
def test_criterion_07_quadrature():
    cases = [
        (ClassicalWeight("jacobi", 0, 0), -1.0, 1.0),
        (QUAD_TIGHT, -1.0, 1.0),
        (QUAD_TIGHT_10, -1.0, 0.5),
    ]
    for source, lo, hi in cases:
        f = biorth.family_from_measure(source, 9)
        ms = gram.moments(source, 15)
        for k in range(1, 9):
            rule = quad.gauss_rule(f, k)
            assert quad.exactness_check(rule, ms) < 1e-12
            assert all(b - a > 1e-8 for a, b in zip(rule.nodes, rule.nodes[1:]))
            assert all(lo - 1e-12 <= x <= hi + 1e-12 for x in rule.nodes)


@criterion(8, "moment identity m_j = (J^j)_00 H_0, exact, j <= 2k-1")
def test_criterion_08_moment_identity():
    for source in (NINE_UNIFORM, ClassicalWeight("hermite")):
        f = biorth.family_from_measure(source, 9)
        ms = gram.moments(source, 15)
        for j in range(16):
            assert biorth.moment_from_spectral(f, j) == ms[j]


@criterion(9, "CD, confluent CD, mixed CD, ABC, reproducing, and projection identities, "
              "exact, >= 20 rational points each, n <= 6")
def test_criterion_09_kernel_identities(atoms8, fam8):
    f = fam8
    g = f.gram
    xs = rational_points(91, 20)
    ys = rational_points(92, 20)

    for n in range(7):
        for x, y in zip(xs, ys):
            lhs = (x - y) * biorth.cd_kernel(f, n, x, y)
            rhs = (
                poly_eval(f.poly2(n), y) * poly_eval(f.poly1(n + 1), x)
                - poly_eval(f.poly2(n + 1), y) * poly_eval(f.poly1(n), x)
            ) / F(f.h[n], 1)
            assert lhs == rhs

    for l in range(1, 8):
        pl, pl1 = f.poly1(l), f.poly1(l - 1)
        rhs_poly = poly_scale(
            F(1, 1) / f.h[l - 1],
            poly_sub(poly_mul(poly_deriv(pl), pl1), poly_mul(poly_deriv(pl1), pl)),
        )
        for x in xs:
            lhs = sum(
                poly_eval(f.poly1(k), x) ** 2 / F(f.h[k], 1) for k in range(l)
            )
            assert lhs == poly_eval(rhs_poly, x)

    a = F(22, 7)
    c1 = biorth.second_kind_values(f, atoms8, a)
    for n in range(7):
        for y in ys:
            lhs = (a - y) * biorth.mixed_cd_kernel(f, c1, n, y)
            rhs = (
                poly_eval(f.poly2(n), y) * c1.values1[n + 1]
                - poly_eval(f.poly2(n + 1), y) * c1.values1[n]
            ) / F(f.h[n], 1) + 1
            assert lhs == rhs

    for l in range(1, 8):
        for x, y in zip(xs, ys):
            assert biorth.abc_kernel(g, l, x, y) == biorth.cd_kernel(f, l - 1, x, y)

    def kernel_poly_x(n, y):
        out = [0]
        for k in range(n + 1):
            c = poly_eval(f.poly2(k), y)
            if c != 0:
                out = poly_add(out, poly_scale(F(c, 1) / f.h[k], f.poly1(k)))
        return out

    n = 6
    for z1, z2 in zip(xs, ys):
        a_poly = kernel_poly_x(n, z2)
        b_poly = biorth.cd_kernel_poly_y(f, n, z1)
        assert form_value(g, a_poly, b_poly) == biorth.cd_kernel(f, n, z1, z2)

    for z in xs:
        a_poly = kernel_poly_x(n, z)
        for l in range(n + 1):
            assert form_value(g, a_poly, [0] * l + [1]) == z**l


@criterion(10, "Heine oracle equals factorization polynomials, exact, k <= 4, <= 6 atoms")
def test_criterion_10_heine(atoms6):
    five = DiscreteMeasure.from_pairs([(-2, 1), (-1, 1), (0, 2), (1, 1), (3, 1)])
    for m in (five, atoms6):
        f = biorth.build_families(gram.gram_matrix(m, 5))
        for k in range(5):
            for x in rational_points(101, 5):
                assert biorth.heine_oracle(m, k, x) == poly_eval(f.poly1(k), x)


def _draw_perturbation(rng, degree, banned):
    parts = []
    left = degree
    while left > 0:
        m = rng.choice([1, 2]) if left >= 2 else 1
        parts.append(m)
        left -= m
    roots = []
    used = set(banned)
    for m in parts:
        while True:
            r = F(rng.randint(-9, 9), rng.choice([1, 2, 3]))
            if r not in used:
                used.add(r)
                break
        roots.append((r, m))
    return PolyPerturbation(tuple(roots))


@criterion(11, "Christoffel master oracle: 50 seeded cases (degree <= 3, multiplicity <= 2) "
               "match direct factorization exactly; Hankel two-form formulas agree")
def test_criterion_11_christoffel_oracle():
    rng = random.Random(110)
    successes = 0
    attempts = 0
    while successes < 50:
        attempts += 1
        assert attempts < 600
        degree = successes % 3 + 1
        m = random_measure(rng, rng.randint(5, 9))
        size = min(len(m.atoms), degree + 3)
        w = _draw_perturbation(rng, degree, [a.q for a in m.atoms])
        try:
            f = biorth.build_families(gram.gram_matrix(m, size))
            hat = biorth.build_families(
                transforms.christoffel_gram(gram.gram_matrix(m, size), w)
            )
            results = [
                transforms.christoffel_polys_general(f, w, n)
                for n in range(size - degree)
            ]
        except (NotQuasiDefinite, ZeroAtRoot, SingularJetMatrix):
            continue
        for n, (p1, h, p2) in enumerate(results):
            assert poly_trim(p1) == poly_trim(hat.poly1(n))
            assert poly_trim(p2) == poly_trim(hat.poly2(n))
            assert h == hat.h[n]
        if degree == 1:
            a = w.roots[0][0]
            for n in range(size - 1):
                q1, q2, _ = transforms.christoffel_polys_deg1(f, a, n)
                assert poly_trim(q1) == poly_trim(q2)
        successes += 1


@criterion(12, "Geronimus master oracle: 50 seeded degree-1 and iterated simple-root cases "
               "(xi in {0, 1, -1/2}) match direct factorization exactly, with connector "
               "band structure and kernel connections")
def test_criterion_12_geronimus_oracle():
    rng = random.Random(120)
    xis = [0, 1, F(-1, 2)]
    successes = 0
    attempts = 0
    while successes < 50:
        attempts += 1
        assert attempts < 600
        m = random_measure(rng, rng.randint(5, 9))
        size = min(len(m.atoms), 5)
        banned = [a.q for a in m.atoms]
        xi = xis[successes % 3]
        if successes % 2 == 0:
            a = _draw_perturbation(rng, 1, banned).roots[0][0]
            try:
                f = biorth.build_families(gram.gram_matrix(m, size))
                col = transforms.geronimus_first_column(m, a, xi, size)
                fcheck = biorth.build_families(
                    transforms.geronimus_gram(gram.gram_matrix(m, size), a, col)
                )
                c1 = biorth.second_kind_values(f, m, a)
                xp = transforms.xi_pairing_single_mass(f, a, xi)
                results = [
                    transforms.geronimus_polys_deg1(f, c1, xp, n) for n in range(size)
                ]
            except (NotQuasiDefinite, ZeroDenominator, PoleAtAtom):
                continue
            d = [c1.values1[k] - xp[k] for k in range(size)]
            for n, (p1, h, p2) in enumerate(results):
                assert poly_trim(p1) == poly_trim(fcheck.poly1(n))
                assert poly_trim(p2) == poly_trim(fcheck.poly2(n))
                assert h == fcheck.h[n]
            omega = transforms.geronimus_connector(f, fcheck)
            for i in range(size):
                assert omega.rows[i][i] == 1
                for j in range(size):
                    if j not in (i, i - 1):
                        assert omega.rows[i][j] == 0
                if i >= 1:
                    assert omega.rows[i][i - 1] == -d[i] / d[i - 1]
            n = 2
            _, h, p2 = results[n]
            for x, y in zip(rational_points(121, 3), rational_points(122, 3)):
                lhs = biorth.cd_kernel(fcheck, n - 1, x, y)
                rhs = (y - a) * biorth.cd_kernel(f, n - 1, x, y) - poly_eval(
                    p2, y
                ) / F(h, 1) * omega.rows[n][n - 1] * poly_eval(f.poly1(n - 1), x)
                assert lhs == rhs
        else:
            w = _draw_perturbation(rng, 2, banned)
            if any(mult != 1 for _, mult in w.roots):
                w = PolyPerturbation.simple(*w.root_values())
                if len(w.roots) != 2:
                    continue
            try:
                f = biorth.build_families(gram.gram_matrix(m, size))
                free = GeronimusFreeData.for_measure(m, w, [xi, 0])
                res = transforms.linear_spectral(f, PolyPerturbation(()), w, free, size)
                step = m
                for (q, _), x in zip(w.roots, [xi, 0]):
                    step = transforms.geronimus_measure(step, q, x)
                g_direct = gram.gram_matrix(step, size)
            except (NotQuasiDefinite, ZeroDenominator, PoleAtAtom):
                continue
            assert res.family.gram.rows == g_direct.rows
            assert res.family.h == biorth.build_families(g_direct).h
        successes += 1


@criterion(13, "Markov-function transform identities: residual exactly 0 at 10 rational "
               "points per case")
def test_criterion_13_markov(atoms3, atoms6, deriv_measure):
    cases = [
        (atoms3, 3, 2, 0),
        (atoms3, 3, 2, 7),
        (atoms6, F(7, 2), F(9, 2), F(1, 3)),
        (deriv_measure, 5, F(7, 2), F(-1, 2)),
    ]
    for m, r, q, xi in cases:
        assert transforms.markov_transform_check(m, r, q, xi) == (0, 0, 0)


@criterion(14, "det G^[2] = 0 surfaces NotQuasiDefinite(1) and CLI exit code 2")
def test_criterion_14_failure_surfacing(tmp_path, capsys):
    m = DiscreteMeasure.from_pairs([(1, 2)])
    with pytest.raises(NotQuasiDefinite) as info:
        biorth.build_families(gram.gram_matrix(m, 2))
    assert info.value.index == 1

    spec = tmp_path / "single.json"
    spec.write_text(json.dumps({"type": "discrete", "atoms": [{"q": "1", "w": "2"}]}))
    code = main(["polys", "--spec", str(spec), "--n", "2"])
    out = capsys.readouterr().out
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "NotQuasiDefinite"
    assert doc["index"] == 1
