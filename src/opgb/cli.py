"""Command line front end: it parses, dispatches and formats.

It reads argv and the spec, picks the truncation size, calls the library
and formats what comes back; every check it prints is a library function
that returns (name, exact residual) records: biorth.identity_checks,
classical.classical_checks and transforms.formula_vs_factorization. It
imports nothing from numlin or poly and forms no matrix product. quad and
transforms are imported inside the functions that run them, so a cold
process loads them only for quadrature and transform.

Subcommands take a measure spec file (JSON, see gram.parse_measure_spec)
and emit a canonical JSON document with a frozen "schema":"1" field:
sorted keys, compact separators; plot-data writes CSV instead. Every
command computes exactly in both modes, reading point values and moments
off the built family. --mode exact writes each exact scalar as a
lowest-terms "p/q" string, --mode float as the nearest float (a JSON
number); values that are floats by nature (quadrature nodes and weights,
mass, residuals) are JSON numbers in both, and plot-data rounds each exact
P_k(x) once. Exit codes: 0
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
import re
import sys

from . import biorth, classical, gram
from .errors import NotHankel, NotQuasiDefinite, OpgbError, UnsupportedMeasure
from .record import Record, fields
from .scalars import format_scalar, parse_scalar

NUMERIC_OPTIONS = ("--root", "--g-root", "--xi", "--c0", "--range")


class JobSpec(Record):
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


def fmt(x, mode):
    """Exact scalar to JSON value: the nearest float in float mode, else a "p/q" string."""
    return float(x) if mode == "float" else format_scalar(x)


def fmt_list(xs, mode):
    return [fmt(x, mode) for x in xs]


def _measure_and_gram(job: JobSpec, n: int):
    source = gram.parse_measure_spec(job.spec)
    return source, gram.gram_matrix(source, n)


def run(job: JobSpec):
    """Execute a job; returns (payload, exit code).

    The payload is a dict, to which the document header (schema, command,
    mode, measure) is added here, or the CSV text of plot-data. The exit code
    of a failure is the one its error class names; a ValueError is misuse and
    an OverflowError a value past the float range (both 1).
    """
    try:
        payload = COMMANDS[job.command](job)
    except (OpgbError, ValueError, OverflowError) as exc:
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
    out = {"n": job.n, **_family_payload(fam, job.mode)}
    if fam.hankel and fam.size >= 2:
        b, a = biorth.three_term_coeffs(fam)
        out["jacobi_band"] = {"a": fmt_list(a, job.mode), "b": fmt_list(b[1:], job.mode)}
    if isinstance(source, gram.ClassicalWeight):
        out["mass"] = source.mass()
    return out


def _cmd_quadrature(job: JobSpec):
    from . import quad

    source, g = _measure_and_gram(job, job.k + 1)
    fam = biorth.build_families(g)
    rule = quad.gauss_rule(fam, job.k)
    out = {
        "k": job.k,
        "nodes": list(rule.nodes),
        "weights": list(rule.weights),
        "method": rule.method,
        "exactness": quad.exactness_check(rule, gram.moments(source, 2 * job.k)),
    }
    if isinstance(source, gram.ClassicalWeight):
        out["mass"] = source.mass()
    return out


def _parse_roots(values, option):
    """Monic W from the values of option; a run of equal values is one multiple root."""
    from . import transforms

    if not values:
        raise UnsupportedMeasure(f"transform needs at least one {option}")
    runs = itertools.groupby(parse_scalar(v) for v in values)
    return transforms.PolyPerturbation(tuple((r, len(list(run))) for r, run in runs))


def _refuse_stray(kind, *options):
    """Exit 1 ("schema") on a given option that the transform kind does not read."""
    for option, values in options:
        if values:
            raise UnsupportedMeasure(f"--transform {kind} takes no {option}")


def _cmd_transform(job: JobSpec):
    from . import transforms

    kind = job.transform
    out = {"transform": kind, "n": job.n}
    if kind == "christoffel":
        _refuse_stray(kind, ("--g-root", job.g_roots), ("--xi", job.xis), ("--c0", job.c0s))
        w = _parse_roots(job.roots, "--root")
        source, g = _measure_and_gram(job, job.n + w.degree)
        fam = biorth.build_families(g, allow_final_zero=True)
        hat = biorth.build_families(transforms.christoffel_gram(g, w))
        out.update(_formula_payload(
            lambda deg: transforms.christoffel_polys_general(fam, w, deg), hat, job.n, job.mode))
        out["roots"] = fmt_list([parse_scalar(v) for v in job.roots], job.mode)
        return out
    if kind not in ("geronimus", "linear-spectral"):
        raise UnsupportedMeasure(f"unknown transform {kind!r}")
    # Geronimus is the linear spectral transform with W_C = 1.
    geronimus = kind == "geronimus"
    if geronimus:
        _refuse_stray(kind, ("--root", job.roots))
    wc = transforms.PolyPerturbation(()) if geronimus else _parse_roots(job.roots, "--root")
    wg = _parse_roots(job.g_roots, "--g-root")
    xis = [parse_scalar(v) for v in job.xis]
    if len(xis) > len(wg.roots):
        raise UnsupportedMeasure("more xi values than Geronimus roots")
    xis += [0] * (len(wg.roots) - len(xis))
    # 2n - 1 transformed moments take 2n - 1 + deg W_C - deg W_G source ones; at least n.
    source, g = _measure_and_gram(job, job.n + max(0, (wc.degree - wg.degree + 1) // 2))
    if isinstance(source, gram.BivariateTable) and not source.hankel:
        raise NotHankel(f"the {kind} transform needs a Hankel table")
    ms = gram.moments(source, 2 * g.shape[0] - 2)
    # Only a single simple root's degree-1 formulas read the source family, so only they factor it.
    single = geronimus and wg.degree == 1
    fam = biorth.build_families(g, allow_final_zero=True) if single else None
    free = _free_data(job, source, wg, xis)
    res = transforms.linear_spectral_from_moments(ms, wc, wg, free, job.n)
    if single:
        a, xi, c0 = free.entries[0]
        c1 = biorth.second_kind_from_c0(fam, a, c0)
        xp = transforms.xi_pairing_single_mass(fam, a, xi)
        out.update(_formula_payload(
            lambda deg: transforms.geronimus_polys_deg1(fam, c1, xp, deg),
            res.family, job.n, job.mode))
        out.update(root=fmt(a, job.mode), xi=fmt(xi, job.mode))
        return out
    out.update(_family_payload(res.family, job.mode))
    if not geronimus:
        out["moments"] = fmt_list(res.moments[: 2 * job.n - 1], job.mode)
    return out


def _free_data(job: JobSpec, source, wg, xis):
    """Free data per Geronimus root: c0 from the atoms, or from --c0 for a continuous measure."""
    from . import transforms

    if isinstance(source, gram.DiscreteMeasure):
        if job.c0s:
            raise UnsupportedMeasure("--c0 is for continuous measures; atoms give their own c0")
        return transforms.GeronimusFreeData.for_measure(source, wg, xis)
    if len(job.c0s) != len(wg.roots):
        raise UnsupportedMeasure("continuous measures need one --c0 per Geronimus root")
    return transforms.GeronimusFreeData(
        tuple((q, xi, parse_scalar(c0)) for (q, _), xi, c0 in zip(wg.roots, xis, job.c0s))
    )


def _formula_payload(formula, fam, n, mode):
    """The (P_1, H, P_2) = formula(deg) for deg < n, and whether each equals its counterpart in fam."""
    from . import transforms

    rows, agree = transforms.formula_vs_factorization(formula, fam, n)
    return {"p1": [fmt_list(p1, mode) for p1, _, _ in rows], "h": [fmt(h, mode) for _, h, _ in rows],
            "p2": [fmt_list(p2, mode) for _, _, p2 in rows], "matches_factorization": agree}


def _family_payload(fam, mode):
    p1 = [fmt_list(fam.poly1(k), mode) for k in range(fam.size)]
    # A Hankel family shares one S (s2 is s1): format it once.
    p2 = p1 if fam.s2 is fam.s1 else [fmt_list(fam.poly2(k), mode) for k in range(fam.size)]
    return {"h": fmt_list(fam.h, mode), "p1": p1, "p2": p2, "hankel": fam.hankel}


def _cmd_classical_check(job: JobSpec):
    source = gram.parse_measure_spec(job.spec)
    if not isinstance(source, gram.ClassicalWeight):
        raise ValueError("classical-check needs a classical measure spec")
    pd = classical.pearson_data(source)
    fam = biorth.family_from_measure(source, job.n + 2)
    fam_up = biorth.family_from_measure(gram.raise_parameters(source), job.n + 2)
    records = classical.classical_checks(pd, fam, fam_up)
    checks = [{"name": name, "passed": r == 0} for name, r in records]
    return {
        "n": job.n,
        "family": source.family,
        "eigenvalues": fmt_list([classical.classical_eigenvalue(pd, m) for m in range(job.n + 1)],
                                job.mode),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _cmd_identities(job: JobSpec):
    source, g = _measure_and_gram(job, job.n)
    records = biorth.identity_checks(biorth.build_families(g), source, job.seed)
    # A check passes when its exact residual is zero.
    checks = [{"name": name, "passed": r == 0, "residual": float(r)} for name, r in records]
    return {
        "n": job.n,
        "seed": job.seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _cmd_plot_data(job: JobSpec):
    _, g = _measure_and_gram(job, job.n + 1)
    fam = biorth.build_families(g)
    return emit_plot_data(fam, *job.plot_range, job.samples)


def emit_plot_data(fam, lo: float, hi: float, samples: int) -> str:
    """CSV with columns x, P_0(x), ..., P_{n-1}(x) on a uniform grid.

    Each value is the exact P_k at the float sample x (point_values), rounded once.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    lines = ["x," + ",".join(f"P{k}" for k in range(fam.size))]
    for i in range(samples):
        x = lo + (hi - lo) * i / (samples - 1)
        row = [x] + [float(v) for v in biorth.point_values(fam, 1, fam.size - 1, x)]
        lines.append(",".join(f"{v!r}" for v in row))
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
    job = JobSpec(**{name: getattr(args, name) for name in fields(JobSpec)})
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
