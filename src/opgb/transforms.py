"""Christoffel, Geronimus, and linear spectral transformations.

A Christoffel transform multiplies the functional by a monic polynomial
W_C; on the Gram side that is G -> W_C(Lambda) G. A Geronimus transform
divides by W_G and adds free masses at its roots; its Gram matrix solves
G_new (Lambda^T - a) = G one root at a time, which pins everything except
the first column, supplied from Cauchy moments plus the free constants. A
linear spectral (Geronimus-Uvarov) transform composes the two for coprime
W_C, W_G.

For a Hankel source the composition is a map on the moment sequence alone
(Zhedanov 1997): linear_spectral_from_moments, which factors only the
transformed block; linear_spectral is its adapter for a Hankel family, and
geronimus_gram with geronimus_first_column its Gram-level oracle.

For each transform the perturbed family also has explicit formulas
(quasi-determinant style) in the original polynomials, kernels and
second-kind functions, which read a factored source; the test suite holds
them against the factorization route case by case.

Degree-1 building blocks also act on discrete measures directly
(multiply/divide by a linear factor, including derivative atoms via the
Leibniz rule), which gives the measure-level oracle for the Markov
function identities.
"""

from fractions import Fraction
from math import comb, factorial

from .biorth import (
    BiorthFamilies,
    SecondKindValues,
    build_families,
    cd_kernel_poly_y,
    p2_combination,
    point_values,
)
from .errors import (
    InsufficientTruncation,
    NotCoprime,
    NotHankel,
    OpgbError,
    PoleAtAtom,
    SingularJetMatrix,
    SingularTruncation,
    UnsupportedMeasure,
    ZeroAtRoot,
    ZeroDenominator,
)
from .gram import Atom, DiscreteMeasure, cauchy_moments, moments_discrete
from .numlin import Matrix, hankel_moments, solve_vector, unit_lower_inverse
from .poly import (
    exact_div,
    poly_add,
    poly_divmod_linear,
    poly_jet,
    poly_mul,
    poly_scale,
    poly_sub,
)
from .record import Record
from .scalars import canon


class PolyPerturbation(Record):
    """Monic perturbing polynomial given by its roots with multiplicities; roots taken exactly."""

    roots: tuple

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple((canon(r), m) for r, m in self.roots))

    @classmethod
    def simple(cls, *values):
        return cls(tuple((v, 1) for v in values))

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.roots)

    def coeffs(self):
        out = [1]
        for r, m in self.roots:
            for _ in range(m):
                out = poly_mul(out, [-r, 1])
        return out

    def root_values(self):
        return tuple(r for r, _ in self.roots)


class GeronimusFreeData(Record):
    """Per Geronimus root: (root, xi mass, c_0 Markov value at the root), taken exactly."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(canon(v) for v in e) for e in self.entries))

    @classmethod
    def for_measure(cls, m: DiscreteMeasure, w_g: PolyPerturbation, xis):
        """c_0 from the atoms; linear_spectral is where a repeated root is refused."""
        return cls(tuple((q, xi, cauchy_moments(m, q, 0)[0])
                         for (q, _), xi in zip(w_g.roots, xis, strict=True)))


def _check_remainder(rem):
    """A synthetic-division remainder must vanish; anything else is a formula bug."""
    if rem != 0:
        raise OpgbError(f"formula inconsistency: division remainder {rem}")


def _w_of_shift(coeffs, xs, count):
    """The first count entries of W(Lambda) x: (sum_t w_t x_{i+t})_{i<count}."""
    return [sum(coeffs[t] * xs[i + t] for t in range(len(coeffs))) for i in range(count)]


def christoffel_gram(g: Matrix, w: PolyPerturbation) -> Matrix:
    """Valid (n-N) x (n-N) block of W_C(Lambda) G.

    Row i is sum_t w_t G_{i+t}, applied to each column of G. Its test
    oracle is the dense product W_C(Lambda) G (dense_w_of_shift in
    tests/conftest.py).
    """
    n = g.shape[0]
    nn = w.degree
    if n - nn < 1:
        raise InsufficientTruncation(f"degree {nn} perturbation consumes the whole truncation")
    wc = w.coeffs()
    cols = [_w_of_shift(wc, [row[j] for row in g.rows], n - nn) for j in range(n - nn)]
    return Matrix(cols).transpose().canon()


def christoffel_polys_deg1(f: BiorthFamilies, a, n: int):
    """(P-hat_{1,n}, P-hat_{2,n}, H-hat_n) for W_C = x - a.

    P-hat_{1,n}(x) = (P_{1,n+1}(x) - r P_{1,n}(x)) / (x - a) with
    r = P_{1,n+1}(a)/P_{1,n}(a); P-hat_{2,n}(y) = K_n(a,y) H_n / P_{1,n}(a);
    H-hat_n = -r H_n. The root is taken exactly.
    """
    a = canon(a)
    p_next, p = f.poly1(n + 1), f.poly1(n)
    *_, pa, p_next_a = point_values(f, 1, n + 1, a)
    if pa == 0:
        raise ZeroAtRoot(f"P_(1,{n}) vanishes at {a}; transform degenerates")
    ratio = exact_div(p_next_a, pa)
    quot, rem = poly_divmod_linear(poly_sub(p_next, poly_scale(ratio, p)), a)
    _check_remainder(rem)
    phat2 = poly_scale(exact_div(f.h[n], pa), cd_kernel_poly_y(f, n, a))
    return _canon_result(quot, phat2, -ratio * f.h[n])


def _canon_result(*parts):
    """A transform's polynomials (entrywise) and H value in canonical form."""
    return tuple([canon(c) for c in x] if isinstance(x, list) else canon(x) for x in parts)


def jet(coeffs, w: PolyPerturbation):
    """Jet of a polynomial at the perturbation roots: per root r of
    multiplicity m, the Taylor coefficients f(r), f'(r)/1!, ..., f^(m-1)(r)/(m-1)!,
    concatenated in root order into a length-N vector."""
    out = []
    for r, m in w.roots:
        out.extend(poly_jet(coeffs, r, m))
    return out


def christoffel_polys_general(f: BiorthFamilies, w: PolyPerturbation, n: int):
    """(P-hat_{1,n}, H-hat_n, P-hat_{2,n}) for monic W_C of degree N.

    The jet matrix J has rows jet(P_{1,n+i}) for i < N. With
    c = jet(P_{1,n+N}) J^{-1}, the combination P_{1,n+N} - sum c_i P_{1,n+i}
    vanishes at every root to full multiplicity, so dividing by W_C one
    linear factor at a time is exact; H-hat_n = -c_0 H_n; P-hat_{2,n}(y)
    contracts the x-jet of the order n+N-1 kernel against
    J^{-1} (H_n, 0, ..., 0)^T.
    """
    nn = w.degree
    if nn == 0:
        return _canon_result(f.poly1(n), f.h[n], f.poly2(n))
    quot = f.poly1(n + nn)
    jm = Matrix([jet(f.poly1(n + i), w) for i in range(nn)])
    try:
        c = solve_vector(jm.transpose(), jet(quot, w))
        weights = solve_vector(jm, [f.h[n]] + [0] * (nn - 1))
    except SingularTruncation as exc:
        raise SingularJetMatrix(f"jet matrix singular at n = {n}") from exc
    for i, ci in enumerate(c):
        quot = poly_sub(quot, poly_scale(ci, f.poly1(n + i)))
    for r, m in w.roots:
        for _ in range(m):
            quot, rem = poly_divmod_linear(quot, r)
            _check_remainder(rem)
    factors = []
    for k in range(n + nn):
        jk = jet(f.poly1(k), w)
        factors.append(exact_div(sum(jk[t] * weights[t] for t in range(nn)), f.h[k]))
    phat2 = p2_combination(f, factors)
    return _canon_result(quot, -c[0] * f.h[n], phat2)


def geronimus_first_column(m: DiscreteMeasure, a, xi, length: int):
    """First column of the Geronimus Gram, -c_i(a) + xi a^i, a and xi taken exactly (oracle)."""
    a, xi = canon(a), canon(xi)
    c = cauchy_moments(m, a, length - 1)
    return [-c[i] + xi * a**i for i in range(length)]


def geronimus_gram(g: Matrix, a, first_col) -> Matrix:
    """Gram-level oracle: solve G-check (Lambda^T - a) = G column by column from first_col.

    Every entry is taken exactly (scalars.canon).
    """
    n, a, g = g.shape[0], canon(a), g.canon()
    if len(first_col) < n:
        raise InsufficientTruncation("first column shorter than the truncation")
    rows = [[canon(first_col[i])] for i in range(n)]
    for j in range(1, n):
        for i in range(n):
            rows[i].append(a * rows[i][j - 1] + g.rows[i][j - 1])
    return Matrix(rows)


def xi_pairing_single_mass(f: BiorthFamilies, a, xi):
    """<xi_x, P_{1,k}> for the single-mass functional xi delta_a: xi P_{1,k}(a), canonical."""
    xi = canon(xi)
    return [canon(xi * v) for v in point_values(f, 1, f.size - 1, a)]


def geronimus_polys_deg1(f: BiorthFamilies, c1: SecondKindValues, xi_pairing, n: int):
    """(P-check_{1,n}, H-check_n, P-check_{2,n}) for W_G = x - a.

    With D_k = C_{1,k}(a) - <xi_x, P_{1,k}>:
    P-check_{1,n} = P_{1,n} - (D_n/D_{n-1}) P_{1,n-1};
    H-check_0 = -D_0 and H-check_n = -(D_n/D_{n-1}) H_{n-1};
    P-check_{2,n}(y) = H_{n-1} [(y-a) sum_{k<n} (D_k/H_k) P_{2,k}(y) + 1] / D_{n-1},
    the bracket being (y-a)(K^mix_{n-1}(a,y) - <xi_x, K_{n-1}(.,y)>) + 1.
    """
    a = c1.point
    if n == 0:
        return [1], canon(-(c1.values1[0] - xi_pairing[0])), [1]
    p, p_prev = f.poly1(n), f.poly1(n - 1)
    d_prev = c1.values1[n - 1] - xi_pairing[n - 1]
    d_cur = c1.values1[n] - xi_pairing[n]
    if d_prev == 0:
        raise ZeroDenominator(f"Geronimus denominator D_{n - 1} vanishes")
    ratio = exact_div(d_cur, d_prev)
    pch1 = poly_sub(p, poly_scale(ratio, p_prev))
    kappa = p2_combination(
        f, [exact_div(c1.values1[k] - xi_pairing[k], f.h[k]) for k in range(n)]
    )
    bracket = poly_add(poly_mul([-a, 1], kappa), [1])
    pch2 = poly_scale(exact_div(f.h[n - 1], d_prev), bracket)
    return _canon_result(pch1, -ratio * f.h[n - 1], pch2)


def formula_vs_factorization(formula, f: BiorthFamilies, n: int):
    """([(P_1, H, P_2) = formula(deg) for deg < n], whether each equals its
    counterpart in f, the family refactorized from the transformed Gram matrix)."""
    rows, agree = [], True
    for deg in range(n):
        p1, h, p2 = formula(deg)
        rows.append((p1, h, p2))
        pairs = ((p1, f.poly1(deg)), ([h], [f.h[deg]]), (p2, f.poly2(deg)))
        agree = agree and all(c == 0 for p, q in pairs for c in poly_sub(p, q))
    return rows, bool(agree)


def christoffel_connector(f: BiorthFamilies, fhat: BiorthFamilies, w: PolyPerturbation) -> Matrix:
    """omega-hat = S-hat_1 W_C(Lambda) S_1^{-1} on its valid fhat.size x f.size block."""
    n, m = f.size, fhat.size
    if m > n - w.degree:
        raise InsufficientTruncation("transformed family too large for the source truncation")
    wc, inv = w.coeffs(), unit_lower_inverse(f.s1)
    body = Matrix([_w_of_shift(wc, [row[j] for row in inv.rows], m) for j in range(n)]).transpose()
    return (fhat.s1 @ body).canon()


def christoffel_connector_alt(f: BiorthFamilies, fhat: BiorthFamilies) -> Matrix:
    """The other face of the connector: H-hat (S_2 S-hat_2^{-1})^T H^{-1} (m x m)."""
    m = fhat.size
    b = Matrix([row[:m] for row in f.s2.rows[:m]]) @ unit_lower_inverse(fhat.s2)
    return Matrix.from_function(
        m, m, lambda i, j: exact_div(fhat.h[i] * b.rows[j][i], f.h[j])
    )


def geronimus_connector(f: BiorthFamilies, fcheck: BiorthFamilies) -> Matrix:
    """omega = S-check_1 S_1^{-1} on the common block."""
    m = min(f.size, fcheck.size)
    omega = Matrix([row[:m] for row in fcheck.s1.rows[:m]]) @ unit_lower_inverse(f.s1).leading(m)
    return omega.canon()


def multiply_measure_by_linear(m: DiscreteMeasure, r) -> DiscreteMeasure:
    """The measure (x - r) mu, exactly; derivative atoms split by Leibniz."""
    r, atoms = canon(r), []
    for q, w, d in _exact_atoms(m):
        atoms.append(Atom(q, w * (q - r), d))
        if d >= 1:
            atoms.append(Atom(q, w * d, d - 1))
    return DiscreteMeasure(tuple(atoms))


def multiply_measure(m: DiscreteMeasure, w: PolyPerturbation) -> DiscreteMeasure:
    out = m
    for r, mult in w.roots:
        for _ in range(mult):
            out = multiply_measure_by_linear(out, r)
    return out


def divide_measure_by_linear(m: DiscreteMeasure, q) -> DiscreteMeasure:
    """The measure mu/(x - q), exactly.

    A derivative atom w delta^(d) at p becomes, by the Leibniz expansion of
    (g/(x-q))^(d), the combination over t <= d of atoms of order d - t with
    weight w C(d,t) (-1)^t t! / (p-q)^(t+1).
    """
    q, atoms = canon(q), []
    for p, w, d in _exact_atoms(m):
        if p == q:
            raise PoleAtAtom(f"Geronimus root {q} sits on an atom")
        for t in range(d + 1):
            wt = exact_div(w * comb(d, t) * (-1) ** t * factorial(t), (p - q) ** (t + 1))
            atoms.append(Atom(p, wt, d - t))
    return DiscreteMeasure(tuple(atoms))


def _exact_atoms(m: DiscreteMeasure):
    """(q, w, d) of each atom, q and w taken exactly."""
    return [(canon(a.q), canon(a.w), a.d) for a in m.atoms]


def geronimus_measure(m: DiscreteMeasure, q, xi) -> DiscreteMeasure:
    """mu / (x - q) + xi delta_q; q and xi taken exactly."""
    atoms = divide_measure_by_linear(m, q).atoms
    return DiscreteMeasure(atoms + (Atom(canon(q), canon(xi), 0),))


class LinearSpectralResult(Record):
    family: BiorthFamilies
    moments: tuple


def linear_spectral(
    f: BiorthFamilies,
    w_c: PolyPerturbation,
    w_g: PolyPerturbation,
    free: GeronimusFreeData,
    n: int,
) -> LinearSpectralResult:
    """linear_spectral_from_moments on the moments of a Hankel family's Gram matrix."""
    if not f.hankel:
        raise NotHankel("linear spectral composition needs a Hankel family")
    return linear_spectral_from_moments(hankel_moments(f.gram), w_c, w_g, free, n)


def linear_spectral_from_moments(ms, w_c: PolyPerturbation, w_g: PolyPerturbation,
                                 free: GeronimusFreeData, n: int) -> LinearSpectralResult:
    """Size-n family of W_C (mu / W_G + masses), from the moments ms of mu alone.

    Each Geronimus step (one per simple root q of W_G) prepends the new
    zeroth moment -c_0(q) + xi and shifts the rest through the recurrence
    m-check_{j+1} = q m-check_j + m_j, while the stored Markov values of the
    remaining roots update through the exact transformation rule
    C-check_0(y) = (C_0(y) - C_0(q) + xi)/(y - q). The Christoffel step then
    takes W_C-combinations of consecutive moments. No source is factored:
    the only refusals are those of the transformed size-n Hankel block.
    """
    croots = w_c.root_values()
    for q, mult in w_g.roots:
        if mult != 1:
            raise UnsupportedMeasure("Geronimus roots must be simple")
        if any(q == r for r in croots):
            raise NotCoprime(f"shared root {q} between numerator and denominator")
    if len(free.entries) != len(w_g.roots) or any(
        e[0] != q for e, (q, _) in zip(free.entries, w_g.roots)
    ):
        raise ValueError("free data must align with the Geronimus roots")

    markov = {q: c0 for q, _, c0 in free.entries}
    for q, xi, _ in free.entries:
        m0 = -markov[q] + xi
        checked = [m0]
        for j in range(len(ms)):
            checked.append(q * checked[j] + ms[j])
        for other in markov:
            if other != q:
                markov[other] = exact_div(markov[other] - markov[q] + xi, other - q)
        ms = checked
    tilde = _w_of_shift(w_c.coeffs(), ms, len(ms) - w_c.degree)
    if len(tilde) < 2 * n - 1:
        raise InsufficientTruncation("source truncation too small for the requested size")
    g = Matrix.from_function(n, n, lambda i, j: tilde[i + j])
    return LinearSpectralResult(family=build_families(g), moments=tuple(canon(v) for v in tilde))


def markov_transform_check(m: DiscreteMeasure, r, q, xi, ys=None):
    """Max residuals of the three Markov-function identities at rational points.

    The left side of each identity is the Markov (Cauchy) function of the
    transformed measure built atom by atom; the right side combines Markov
    values of the original measure. All three residuals are exactly zero;
    r, q, xi and the points ys are taken exactly.
    """
    r, q, xi = canon(r), canon(q), canon(xi)
    ys = [canon(y) for y in (_default_probe_points(m, (r, q), 10) if ys is None else ys)]
    mhat = multiply_measure_by_linear(m, r)
    mcheck = geronimus_measure(m, q, xi)
    mtilde = multiply_measure_by_linear(mcheck, r)
    h0 = moments_discrete(m, 0)[0]
    c0q = cauchy_moments(m, q, 0)[0]
    worst = [0, 0, 0]
    for y in ys:
        c0y = cauchy_moments(m, y, 0)[0]
        pairs = (
            (cauchy_moments(mhat, y, 0)[0], (y - r) * c0y - h0),
            (cauchy_moments(mcheck, y, 0)[0], exact_div(c0y - c0q + xi, y - q)),
            (
                cauchy_moments(mtilde, y, 0)[0],
                exact_div((y - r) * c0y - (q - r) * c0q + (q - r) * xi, y - q),
            ),
        )
        for i, (lhs, rhs) in enumerate(pairs):
            worst[i] = max(worst[i], abs(lhs - rhs))
    return tuple(worst)


def _default_probe_points(m: DiscreteMeasure, avoid, count: int):
    banned = {a.q for a in m.atoms} | set(avoid)
    out = []
    step = Fraction(7, 3)
    y = Fraction(11, 7)
    while len(out) < count:
        if y not in banned:
            out.append(y)
        y += step
    return out
