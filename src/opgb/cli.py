"""Command line front end.

Subcommands take a measure spec file (JSON, see gram.parse_measure_spec)
and emit a canonical JSON document with a frozen "schema":"1" field:
sorted keys, compact separators, fractions as lowest-terms "p/q" strings,
floats as JSON numbers; plot-data writes CSV instead. Exit codes: 0
success, 2 when the mathematics refuses (quasi-definiteness or transform
admissibility fails), 1 for malformed input, misuse (including a bad
command line) and internal consistency failures. Every library error,
whatever its code, comes out as a JSON document {"error": ..., "message":
...}, never as a traceback; each error class names its own exit code (see
errors.py).

    opgb polys --spec measure.json --n 4
    opgb quadrature --spec measure.json --k 3
    opgb transform --spec measure.json --transform christoffel --root 2 --root 3
    opgb transform --spec measure.json --transform geronimus --g-root 2 --xi 1/2
    opgb classical-check --spec hermite.json --n 8
    opgb identities --spec measure.json --n 5 --seed 7
    opgb plot-data --spec measure.json --n 3 --range -2:2 --samples 50
"""

import argparse
import itertools
import json
import random
import re
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from . import biorth, classical, gram, quad, transforms
from .errors import NotQuasiDefinite, OpgbError, UnsupportedMeasure
from .numlin import Matrix, char_poly, hankel_moments
from .poly import exact_div, poly_eval, poly_sub
from .scalars import format_scalar, is_zero, parse_scalar

NUMERIC_OPTIONS = ("--root", "--g-root", "--xi", "--c0", "--range")
# Float-mode tolerance of the formula-vs-factorization matches and the identities checks.
CHECK_TOL = 1e-9


@dataclass
class JobSpec:
    command: str
    spec: dict
    n: int = 4
    k: int = 3
    mode: str = "exact"
    seed: int = 0
    transform: str = "christoffel"
    roots: tuple = ()
    g_roots: tuple = ()
    xis: tuple = ()
    c0s: tuple = ()
    plot_range: tuple = (-1.0, 1.0)
    samples: int = 20


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def fmt(x):
    """Scalar to JSON value: floats stay numbers, exact scalars become strings."""
    if isinstance(x, float):
        return x
    return format_scalar(x)


def fmt_list(xs):
    return [fmt(x) for x in xs]


def _abs_float(m: Matrix) -> Matrix:
    return Matrix([[abs(float(v)) for v in row] for row in m.rows])


def _measure_and_gram(job: JobSpec, n: int):
    source = gram.parse_measure_spec(job.spec)
    g = gram.gram_matrix(source, n)
    if job.mode == "float":
        g = Matrix([[float(v) for v in row] for row in g.rows])
    return source, g


def run(job: JobSpec):
    """Execute a job; returns (payload, exit code).

    The payload is a dict, to which the document header (schema, command,
    mode, measure) is added here, or the CSV text of plot-data. The exit code
    of a failure is the one its error class names; a ValueError is misuse (1).
    """
    try:
        payload = COMMANDS[job.command](job)
    except (OpgbError, ValueError) as exc:
        name = "schema" if isinstance(exc, UnsupportedMeasure) else type(exc).__name__
        payload = {"schema": "1", "error": name, "message": str(exc)}
        if isinstance(exc, NotQuasiDefinite):
            payload["index"] = exc.index
        return payload, getattr(exc, "exit_code", 1)
    if isinstance(payload, dict):
        payload.update(schema="1", command=job.command, mode=job.mode, measure=job.spec)
    return payload, 0


def _cmd_polys(job: JobSpec):
    source, g = _measure_and_gram(job, job.n)
    fam = biorth.build_families(g)
    out = {"n": job.n, **_family_payload(fam)}
    if fam.hankel and fam.size >= 2:
        b, a = biorth.three_term_coeffs(fam)
        out["jacobi_band"] = {"a": fmt_list(a), "b": fmt_list(b[1:])}
    if isinstance(source, gram.ClassicalWeight):
        out["mass"] = source.mass()
    return out


def _cmd_quadrature(job: JobSpec):
    source, g = _measure_and_gram(job, job.k + 1)
    fam = biorth.build_families(g)
    rule = quad.gauss_rule(fam, job.k)
    ms = gram.moments(source, 2 * job.k - 1)
    out = {
        "k": job.k,
        "nodes": list(rule.nodes),
        "weights": list(rule.weights),
        "method": rule.method,
        "exactness": quad.exactness_check(rule, ms),
    }
    if isinstance(source, gram.ClassicalWeight):
        out["mass"] = source.mass()
    return out


def _parse_roots(values):
    """Monic W from root values; a run of equal values is one multiple root."""
    if not values:
        raise ValueError("transform needs at least one root")
    runs = itertools.groupby(parse_scalar(v) for v in values)
    return transforms.PolyPerturbation(tuple((r, len(list(run))) for r, run in runs))


def _cmd_transform(job: JobSpec):
    kind = job.transform
    out = {"transform": kind, "n": job.n}
    if kind == "christoffel":
        w = _parse_roots(job.roots)
        source, g = _measure_and_gram(job, job.n + w.degree + 1)
        fam = biorth.build_families(g)
        hat = biorth.build_families(transforms.christoffel_gram(g, w))
        out.update(_formula_vs_factorization(
            lambda deg: transforms.christoffel_polys_general(fam, w, deg), hat, job.n))
        out["roots"] = fmt_list([parse_scalar(v) for v in job.roots])
        return out
    if kind not in ("geronimus", "linear-spectral"):
        raise ValueError(f"unknown transform {kind!r}")
    # Geronimus is the linear spectral transform with W_C = 1; geronimus ignores --root.
    geronimus = kind == "geronimus"
    wc = transforms.PolyPerturbation(()) if geronimus else _parse_roots(job.roots)
    wg = _parse_roots(job.g_roots)
    xis = [parse_scalar(v) for v in job.xis]
    if len(xis) > len(wg.roots):
        raise ValueError("more xi values than Geronimus roots")
    xis += [0] * (len(wg.roots) - len(xis))
    source, g = _measure_and_gram(job, job.n + (wc.degree + 1) // 2 + 1)
    fam = biorth.build_families(g)
    free = _free_data(job, source, wg, xis)
    if geronimus and len(wg.roots) == 1 and wg.roots[0][1] == 1:
        return _geronimus_single(job, g, fam, free.entries[0], out)
    res = transforms.linear_spectral(fam, wc, wg, free, job.n)
    out.update(_family_payload(res.family))
    if not geronimus:
        out["moments"] = fmt_list(res.moments[: 2 * job.n - 1])
    return out


def _free_data(job: JobSpec, source, wg, xis):
    """Free data per Geronimus root; its c0 is a float in float mode."""
    if isinstance(source, gram.DiscreteMeasure):
        free = transforms.GeronimusFreeData.for_measure(source, wg, xis)
        if job.mode == "exact":
            return free
        c0s = [c0 for _, _, c0 in free.entries]
    else:
        c0s = job.c0s
        if len(c0s) != len(wg.roots):
            raise ValueError("continuous measures need one --c0 per Geronimus root")
    return transforms.GeronimusFreeData(
        tuple((q, xi, float(c0)) for (q, _), xi, c0 in zip(wg.roots, xis, c0s))
    )


def _geronimus_single(job, g, fam, free_entry, out):
    a, xi, c0 = free_entry
    c = gram.cauchy_from_c0(hankel_moments(g), a, c0, fam.size - 1)
    c1 = biorth.second_kind_from_cauchy(fam, a, c)
    first_col = [-c[i] + xi * a**i for i in range(fam.size)]
    xp = transforms.xi_pairing_single_mass(fam, a, xi)
    check = biorth.build_families(transforms.geronimus_gram(g, a, first_col))
    out.update(_formula_vs_factorization(
        lambda deg: transforms.geronimus_polys_deg1(fam, c1, xp, deg), check, job.n))
    out.update(root=fmt(a), xi=fmt(xi))
    return out


def _formula_vs_factorization(formula, fam, n):
    """The (P_1, H, P_2) = formula(deg) for deg < n, and whether each P_1, H
    and P_2 matches the refactorized family fam, by _rows_match in either mode."""
    p1s, p2s, hs, agree = [], [], [], True
    for deg in range(n):
        p1, h, p2 = formula(deg)
        p1s.append(fmt_list(p1))
        p2s.append(fmt_list(p2))
        hs.append(fmt(h))
        pairs = ((p1, fam.poly1(deg)), ([h], [fam.h[deg]]), (p2, fam.poly2(deg)))
        agree = agree and all(_rows_match(p, q) for p, q in pairs)
    return {"p1": p1s, "p2": p2s, "h": hs, "matches_factorization": bool(agree)}


def _rows_match(p, q):
    """p == q, or in float mode |p_i - q_i| < CHECK_TOL max(1, max|q_i|)."""
    scale = max(1.0, max(abs(float(c)) for c in q))
    return all(is_zero(d, CHECK_TOL * scale) for d in poly_sub(p, q))


def _family_payload(fam):
    return {
        "h": fmt_list(fam.h),
        "p1": [fmt_list(fam.poly1(k)) for k in range(fam.size)],
        "p2": [fmt_list(fam.poly2(k)) for k in range(fam.size)],
        "hankel": fam.hankel,
    }


def _cmd_classical_check(job: JobSpec):
    source = gram.parse_measure_spec(job.spec)
    if not isinstance(source, gram.ClassicalWeight):
        raise ValueError("classical-check needs a classical measure spec")
    pd = classical.pearson_data(source)
    n = job.n
    fam = biorth.family_from_measure(source, n + 2)
    checks = []

    sub_ok = all(
        classical.classical_subdiagonal(pd, m) == fam.s1.rows[m + 1][m] for m in range(n)
    )
    checks.append({"name": "subdiagonal_closed_form", "passed": bool(sub_ok)})

    # S1 T S1^{-1} = diag(lambda) is S1 T = diag(lambda) S1, since S1 is invertible.
    t = classical.diff_operator_matrix(pd, n + 2)
    s1t = fam.s1 @ t
    diag_ok = all(
        s1t.rows[i][j] == classical.classical_eigenvalue(pd, i) * fam.s1.rows[i][j]
        for i in range(n + 2)
        for j in range(n + 2)
    )
    checks.append({"name": "operator_diagonalization", "passed": bool(diag_ok)})

    raised = gram.raise_parameters(source)
    fam_up = biorth.family_from_measure(raised, n + 2)
    ms = gram.moments_classical(source, 2)
    kappa = pd.a * ms[2] + pd.b * ms[1] + pd.c
    ratio_ok = True
    for m in range(1, n + 1):
        lead = pd.A + (m - 1) * pd.a
        ratio_ok = ratio_ok and fam.h[m] * lead == -m * kappa * fam_up.h[m - 1]
    checks.append({"name": "norm_ratio_parameter_shift", "passed": bool(ratio_ok)})

    return {
        "n": n,
        "family": source.family,
        "eigenvalues": fmt_list([classical.classical_eigenvalue(pd, m) for m in range(n + 1)]),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _random_rationals(rng, count, den_max=12, num_max=20):
    return [Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max)) for _ in range(count)]


def _cmd_identities(job: JobSpec):
    source, g = _measure_and_gram(job, job.n)
    fam = biorth.build_families(g)
    rng = random.Random(job.seed)
    checks = []

    # Each residual entry is relative to its own operand scale (|S1| |G| |S2|^T)_ij.
    prod = fam.s1 @ fam.gram @ fam.s2.transpose()
    scale = _abs_float(fam.s1) @ _abs_float(fam.gram) @ _abs_float(fam.s2).transpose()
    res = max(
        abs(float(prod.rows[i][j]) - (float(fam.h[i]) if i == j else 0.0))
        / max(1.0, scale.rows[i][j])
        for i in range(fam.size)
        for j in range(fam.size)
    )
    checks.append(_record("biorthogonality", res))

    pts = _random_rationals(rng, 20)
    worst = 0
    for x, y in zip(pts[:10], pts[10:]):
        diff = abs(biorth.cd_kernel(fam, fam.size - 1, x, y) - biorth.abc_kernel(g, fam.size, x, y))
        worst = max(worst, float(diff))
    checks.append(_record("abc_equals_cd", worst))

    if fam.size >= 2:
        jm = biorth.spectral_matrix(fam, 1).j
        worst = 0.0
        for k in range(1, jm.shape[0] + 1):
            cp = char_poly(jm.leading(k))
            pk = fam.poly1(k)
            worst = max(
                worst, max(abs(float(a) - float(b)) for a, b in zip(cp, pk))
            )
        checks.append(_record("roots_are_truncation_eigenvalues", worst))

    if fam.hankel:
        ms = [fam.gram.rows[0][j] for j in range(fam.size)]
        worst = 0.0
        for j in range(min(2 * (fam.size - 1) - 1, len(ms) - 1) + 1):
            worst = max(
                worst, abs(float(biorth.moment_from_spectral(fam, j)) - float(ms[j]))
            )
        checks.append(_record("moment_identity", worst))

        n = fam.size - 2
        if n >= 0:
            worst = 0.0
            for x, y in zip(pts[:10], pts[10:]):
                lhs = (x - y) * biorth.cd_kernel(fam, n, x, y)
                rhs = poly_eval(fam.poly1(n + 1), x) * biorth.eval_poly(fam, 2, n, y) - poly_eval(
                    fam.poly1(n), x
                ) * biorth.eval_poly(fam, 2, n + 1, y)
                worst = max(worst, float(abs(lhs - exact_div(rhs, fam.h[n]))))
            checks.append(_record("cd_formula", worst))

    if isinstance(source, gram.DiscreteMeasure):
        a = next(
            p for p in _random_rationals(rng, 50, 7, 9) if p not in set(source.support())
        )
        c1 = biorth.second_kind_values(fam, source, a)
        n = fam.size - 2
        if n >= 0:
            worst = 0.0
            for y in pts[:10]:
                lhs = (a - y) * biorth.mixed_cd_kernel(fam, c1, n, y)
                rhs = (
                    biorth.eval_poly(fam, 2, n, y) * c1.values1[n + 1]
                    - biorth.eval_poly(fam, 2, n + 1, y) * c1.values1[n]
                )
                rhs = exact_div(rhs, fam.h[n]) + 1
                worst = max(worst, float(abs(lhs - rhs)))
            checks.append(_record("mixed_cd_formula", worst))

    return {
        "n": job.n,
        "seed": job.seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _record(name, residual):
    return {"name": name, "passed": bool(residual <= CHECK_TOL), "residual": float(residual)}


def _cmd_plot_data(job: JobSpec):
    _, g = _measure_and_gram(job, job.n + 1)
    fam = biorth.build_families(g)
    return emit_plot_data(fam, *job.plot_range, job.samples)


def emit_plot_data(fam, lo: float, hi: float, samples: int) -> str:
    """CSV with columns x, P_0(x), ..., P_{n-1}(x) on a uniform grid."""
    if samples < 2:
        raise ValueError("need at least two samples")
    # Horner at a float x rounds each exact coefficient as it adds it, so rounding them first
    # gives the same bits without a Fraction operation per sample.
    polys = [[float(c) for c in fam.poly1(k)] for k in range(fam.size)]
    lines = ["x," + ",".join(f"P{k}" for k in range(fam.size))]
    for i in range(samples):
        x = lo + (hi - lo) * i / (samples - 1)
        row = [f"{x!r}"] + [f"{poly_eval(p, x)!r}" for p in polys]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


COMMANDS = {
    "polys": _cmd_polys,
    "quadrature": _cmd_quadrature,
    "transform": _cmd_transform,
    "classical-check": _cmd_classical_check,
    "identities": _cmd_identities,
    "plot-data": _cmd_plot_data,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: exit code 2 is kept for refusals by the mathematics."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(prog="opgb", description=__doc__.splitlines()[0], allow_abbrev=False)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--spec", required=True, help="measure spec JSON file")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--transform", choices=("christoffel", "geronimus", "linear-spectral"),
                   default="christoffel")
    p.add_argument("--root", dest="roots", action="append", default=[],
                   help="Christoffel root (repeatable)")
    p.add_argument("--g-root", dest="g_roots", action="append", default=[],
                   help="Geronimus root (repeatable)")
    p.add_argument("--xi", dest="xis", action="append", default=[],
                   help="free mass per Geronimus root")
    p.add_argument("--c0", dest="c0s", action="append", default=[],
                   help="Markov value c_0(root) for continuous measures")
    p.add_argument("--range", default="-1:1", help="plot-data x range lo:hi")
    p.add_argument("--samples", type=int, default=20)
    return p


def _join_negative_values(argv):
    """Rewrite "--root -1/3" as "--root=-1/3" for the options that take a number.

    argparse reads a separate value that starts with "-" as an option unless
    it looks like -5 or -.5, so fractions and ranges need the joined form.
    """
    out = []
    for tok in argv:
        if out and out[-1] in NUMERIC_OPTIONS and re.match(r"-[\d.]", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        with open(args.spec) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        doc = canonical_json({"schema": "1", "error": "schema", "message": str(exc)})
        _write(args.out, doc)
        return 1
    try:
        lo, hi = (float(v) for v in args.range.split(":"))
    except ValueError:
        _write(args.out, canonical_json({"schema": "1", "error": "schema", "message": "bad range"}))
        return 1
    args.spec, args.plot_range = spec, (lo, hi)
    job = JobSpec(**{f.name: getattr(args, f.name) for f in fields(JobSpec)})
    payload, code = run(job)
    _write(args.out, payload if isinstance(payload, str) else canonical_json(payload))
    return code


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
