"""Seeded inputs and the fixed job lists of the CLI workloads.

Every random choice goes through one random.Random(seed), so a seed fixes
the spec files, probe points and transform roots. The generated measures
are quasi-definite by construction (positive weights, diagonally dominant
tables) or by an exact check here, so no job fails for an unlucky draw.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import reference as R
from reference import atoms_of, fmt

CLASSICAL = {
    "hermite": {"type": "classical", "family": "hermite"},
    "jacobi": {"type": "classical", "family": "jacobi", "alpha": "1/2", "beta": "0"},
    "laguerre": {"type": "classical", "family": "laguerre", "alpha": "1/2"},
    "laguerre0": {"type": "classical", "family": "laguerre", "alpha": "0"},
    "legendre": {"type": "classical", "family": "jacobi", "alpha": "0", "beta": "0"},
}


def rational(rng, num, den, lo=None):
    """p/den in lowest terms with lo <= p <= num (lo defaults to -num).

    Callers cycle den through a fixed range, so the multiset of denominators,
    and with it the operand bit sizes and the cost, does not depend on the seed.
    """
    while True:
        p = rng.randint(-num if lo is None else lo, num)
        if gcd(p, den) == 1:
            return Fraction(p, den)


def positive(rng, num, den):
    return rational(rng, num, den, lo=1)


def atom_nodes(rng, count, num=24, den=6):
    nodes = set()
    while len(nodes) < count:
        nodes.add(rational(rng, num, 1 + len(nodes) % den))
    return sorted(nodes)


def discrete_spec(atoms):
    """Spec from (q, w, d) triples."""
    return {
        "type": "discrete",
        "atoms": [{"q": fmt(q), "w": fmt(w), "d": d} if d else {"q": fmt(q), "w": fmt(w)} for q, w, d in atoms],
    }


def point_measure(rng, count, den=6):
    nodes = atom_nodes(rng, count, den=den)
    return discrete_spec([(q, positive(rng, 9, 1 + i % 4), 0) for i, q in enumerate(nodes)])


def _leading_minors_nonzero(g):
    w = [list(r) for r in g]
    for k in range(len(w)):
        if w[k][k] == 0:
            return False
        for i in range(k + 1, len(w)):
            m = w[i][k] / w[k][k]
            for j in range(k, len(w)):
                w[i][j] -= m * w[k][j]
    return True


def quasi_definite(ms, size):
    return _leading_minors_nonzero([[ms[i + j] for j in range(size)] for i in range(size)])


def derivative_measure(rng, plain, size):
    """Plain atoms plus one delta' and one delta'' atom, quasi-definite up to size."""
    while True:
        nodes = atom_nodes(rng, plain + 2, 12, 4)
        atoms = [(q, positive(rng, 9, 1 + i % 4), 0) for i, q in enumerate(nodes[:plain])]
        atoms.append((nodes[plain], positive(rng, 3, 5), 1))
        atoms.append((nodes[plain + 1], positive(rng, 3, 6), 2))
        if quasi_definite(R.discrete_moments(atoms, 2 * size - 2), size):
            return discrete_spec(atoms)


def dominant_table(rng, n):
    """Non-symmetric, strictly diagonally dominant: every leading block is invertible."""
    rows = []
    for i in range(n):
        row = [rational(rng, 5, 1 + (i + j) % 3) for j in range(n)]
        row[i] = sum(abs(v) for v in row) + positive(rng, 3, 2)
        rows.append([fmt(v) for v in row])
    return {"type": "bivariate", "entries": rows}


def rank_deficient_table(rng, n, rank):
    """G = A D B^T with unit lower A, B on the top rank x rank block: minors of
    order <= rank are prod D, and every larger one vanishes."""
    def factor():
        return [
            [Fraction(1) if i == j else (rational(rng, 4, 1 + (i + j) % 2) if i > j else Fraction(0))
             for j in range(rank)]
            for i in range(n)
        ]

    a, b = factor(), factor()
    d = [positive(rng, 5, 1 + t % 3) for t in range(rank)]
    entries = [[fmt(sum(a[i][t] * d[t] * b[j][t] for t in range(rank))) for j in range(n)] for i in range(n)]
    return {"type": "bivariate", "entries": entries}


def off_support(rng, count, support, num=9, den=5):
    """Distinct rationals off the support, with at least one negative."""
    out = []
    banned = set(support)
    while len(out) < count:
        q = rational(rng, num, 1 + len(out) % den)
        if q not in banned and q not in out and (out or q < 0):
            out.append(q)
    return out


def admissible_roots(rng, count, support, moment_lists, size, tables=()):
    """Christoffel roots off the support whose transform of every source stays
    quasi-definite up to size (the mathematics would refuse otherwise)."""
    while True:
        roots = off_support(rng, count, support)
        if all(quasi_definite(R.multiply_moments(ms, roots), size) for ms in moment_lists) and all(
            _leading_minors_nonzero([row[:size] for row in R.multiply_rows(t, roots)[:size]]) for t in tables
        ):
            return roots


def admissible_geronimus(rng, support, atom_lists, size, linear=False):
    """(q, xi[, r]) with mu / (x - q) + xi delta_q, times (x - r) for the linear
    spectral transform, quasi-definite up to size for every atom list."""
    while True:
        q, r = off_support(rng, 2, support)
        xi = positive(rng, 3, 4)
        moments = [R.geronimus_moments(atoms, q, xi, 2 * size) for atoms in atom_lists]
        if all(quasi_definite(ms, size) and (not linear or quasi_definite(R.multiply_moments(ms, [r]), size))
               for ms in moments):
            return q, xi, r


@dataclass
class Job:
    """One opgb invocation: argv after the spec, the spec key, what must come out.

    check names a function in checks.py. A non-empty defect marks a job kept
    to show a known defect: its expected result is the correct one, so it
    fails until the defect is fixed.
    """

    name: str
    command: str
    spec: str
    args: tuple = ()
    code: int = 0
    check: str = "polys"
    pinned: bool = False
    defect: str = ""

    def argv(self, spec_path, out_path):
        return [self.command, "--spec", spec_path, *self.args, "--out", out_path]


def cli_families(seed):
    """Large exact jobs where factorization and Fraction bit growth dominate."""
    rng = random.Random(f"cli-families:{seed}")
    specs = dict(CLASSICAL)
    specs["atoms40"] = point_measure(rng, 40)
    specs["table-a"] = dominant_table(rng, 40)
    specs["table-b"] = dominant_table(rng, 40)
    jobs = [
        Job(f"{fam}-polys-n{n}", "polys", fam, ("--n", str(n)), pinned=True)
        for fam in ("hermite", "jacobi", "laguerre")
        for n in (20, 40, 60)
    ]
    jobs += [Job(f"atoms40-polys-n{n}", "polys", "atoms40", ("--n", str(n))) for n in (20, 40)]
    jobs += [Job(f"{t}-polys-n40", "polys", t, ("--n", "40")) for t in ("table-a", "table-b")]
    jobs.append(Job("jacobi-classical-check-n30", "classical-check", "jacobi", ("--n", "30"),
                    check="classical_check", pinned=True))
    return specs, jobs


def cli_small(seed):
    """Many small cold-process jobs over all six commands, both modes, with
    expected refusals and the known float-mode defects."""
    rng = random.Random(f"cli-small:{seed}")
    specs = dict(CLASSICAL)
    specs["atoms8"] = point_measure(rng, 8)
    specs["atoms3"] = point_measure(rng, 3)
    specs["deriv"] = derivative_measure(rng, 4, 6)
    specs["table6"] = dominant_table(rng, 6)
    specs["rank3"] = rank_deficient_table(rng, 6, 3)
    specs["malformed"] = {"type": "discrete", "atoms": "oops"}
    support = [q for q, _, _ in atoms_of(specs["atoms8"])]
    r1, r2 = (fmt(v) for v in admissible_roots(
        rng, 2, support, [R.spec_moments(specs[k], 12) for k in ("atoms8", "hermite")], 5))
    q1, xi, r3 = (fmt(v) for v in admissible_geronimus(rng, support, [atoms_of(specs["atoms8"])], 5, linear=True))
    pole = fmt(support[rng.randrange(len(support))])
    ident_seed = str(rng.randint(0, 10**6))

    def n(v):
        return ("--n", str(v))

    # Negative values go as --root=-1/3: argparse reads "--root -1/3" as an option.
    christoffel = ("--transform", "christoffel", f"--root={r1}", f"--root={r2}", *n(4))
    geronimus = ("--transform", "geronimus", f"--g-root={q1}", f"--xi={xi}", *n(4))
    jobs = [
        Job("hermite-polys", "polys", "hermite", n(8), pinned=True),
        Job("laguerre-polys", "polys", "laguerre", n(8), pinned=True),
        Job("jacobi-polys", "polys", "jacobi", n(8), pinned=True),
        Job("atoms-polys", "polys", "atoms8", n(6)),
        Job("deriv-polys", "polys", "deriv", n(6)),
        Job("table-polys", "polys", "table6", n(6)),
        Job("atoms-quadrature", "quadrature", "atoms8", ("--k", "4"), check="quadrature"),
        Job("hermite-quadrature", "quadrature", "hermite", ("--k", "6"), check="quadrature"),
        Job("jacobi-quadrature", "quadrature", "jacobi", ("--k", "8"), check="quadrature"),
        Job("atoms-christoffel", "transform", "atoms8", christoffel, check="christoffel"),
        Job("hermite-christoffel", "transform", "hermite", christoffel, check="christoffel"),
        Job("atoms-geronimus", "transform", "atoms8", geronimus, check="geronimus"),
        Job("atoms-linear-spectral", "transform", "atoms8",
            ("--transform", "linear-spectral", f"--root={r3}", f"--g-root={q1}", f"--xi={xi}", *n(4)),
            check="linear_spectral"),
        Job("hermite-classical-check", "classical-check", "hermite", n(8), check="classical_check", pinned=True),
        Job("laguerre-classical-check", "classical-check", "laguerre", n(6), check="classical_check", pinned=True),
        Job("atoms-identities", "identities", "atoms8", (*n(6), "--seed", ident_seed), check="identities"),
        Job("hermite-identities", "identities", "hermite", (*n(6), "--seed", "7"), check="identities", pinned=True),
        Job("table-identities", "identities", "table6", (*n(5), "--seed", ident_seed), check="identities"),
        Job("hermite-plot-data", "plot-data", "hermite", (*n(5), "--range=-2:2", "--samples", "9"), check="plot"),
        # Expected refusals: the typed error is the correct answer.
        Job("atoms3-rank-refusal", "polys", "atoms3", n(5), code=2, check="refusal:NotQuasiDefinite:3"),
        Job("table-rank-refusal", "polys", "rank3", n(6), code=2, check="refusal:NotQuasiDefinite:3"),
        Job("pole-refusal", "transform", "atoms8",
            ("--transform", "geronimus", f"--g-root={pole}", *n(4)), code=2, check="refusal:PoleAtAtom"),
        Job("not-hankel-refusal", "quadrature", "table6", ("--k", "3"), code=1, check="refusal:NotHankel"),
        Job("malformed-refusal", "polys", "malformed", n(3), code=1, check="refusal:schema"),
        # Float mode against exact references.
        Job("hermite-float-polys", "polys", "hermite", (*n(8), "--mode", "float")),
        Job("atoms-float-polys", "polys", "atoms8", (*n(6), "--mode", "float")),
        Job("atoms-float-christoffel", "transform", "atoms8", (*christoffel, "--mode", "float"), check="christoffel",
            defect="float matches_factorization compares rows against an absolute 1e-9"),
        Job("jacobi-float-quadrature", "quadrature", "jacobi", ("--k", "8", "--mode", "float"), check="quadrature"),
        Job("atoms-float-identities", "identities", "atoms8", (*n(5), "--seed", ident_seed, "--mode", "float"),
            check="identities",
            defect="float identities test residuals against an absolute 1e-9, too tight for atoms out to |q| = 24"),
        Job("legendre-plot-data", "plot-data", "legendre", (*n(6), "--samples", "11"), check="plot"),
        # Known defects, kept so that fail_ratio shows them until they are fixed.
        Job("legendre-float-polys-n20", "polys", "legendre", (*n(20), "--mode", "float"),
            defect="float LDU pivot test is absolute: NotQuasiDefinite(17) on a positive-definite weight"),
        Job("legendre-plot-data-n19", "plot-data", "legendre", n(19), check="plot",
            defect="plot-data always factors a float Gram: NotQuasiDefinite(17)"),
        Job("laguerre0-float-polys-n20", "polys", "laguerre0", (*n(20), "--mode", "float"),
            defect="float Laguerre H is about 26% off exact at n=20"),
        Job("laguerre-quadrature-k12", "quadrature", "laguerre", ("--k", "12"), check="quadrature",
            defect="weight cross-check raises a bare OpgbError"),
        Job("jacobi-quadrature-k21", "quadrature", "jacobi", ("--k", "21"), check="quadrature",
            defect="weight cross-check raises a bare OpgbError"),
    ]
    return specs, jobs


def lib_session(seed):
    """Sources and probe data for the warm library session."""
    rng = random.Random(f"lib-session:{seed}")
    specs = {
        "jacobi": CLASSICAL["jacobi"],
        "hermite": CLASSICAL["hermite"],
        "atoms40": point_measure(rng, 40, den=4),
        "deriv": derivative_measure(rng, 16, 17),
        "table": dominant_table(rng, 17),
    }
    discrete = [atoms_of(specs[k]) for k in ("atoms40", "deriv")]
    support = sorted({q for atoms in discrete for q, _, _ in atoms})
    hankel = [R.spec_moments(spec, 34) for spec in specs.values() if spec["type"] != "bivariate"]
    table = [[Fraction(v) for v in row] for row in specs["table"]["entries"]]
    roots = admissible_roots(rng, 2, support, hankel, 16, [table])
    q, xi, r = admissible_geronimus(rng, support, discrete, 16, linear=True)
    return {
        "specs": specs,
        "sizes": [8, 12, 16],
        "points": [fmt(v) for v in off_support(rng, 8, support, 30, 7)],
        "christoffel_roots": [fmt(v) for v in roots],
        "geronimus_root": fmt(q),
        "linear_root": fmt(r),
        "xi": fmt(xi),
    }


CLI_WORKLOADS = {"cli-families": cli_families, "cli-small": cli_small}
