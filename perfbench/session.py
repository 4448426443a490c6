"""The lib-session workload: one warm process that uses opgb as a library.

A pass builds families for every source at every size, then issues many
small queries against them, the way scripts/ and the README use the
package. Each public call is one timed op. Every op is checked after the
pass, outside the timed region, against reference.py and against the
verified family it was asked about.
"""

import json
import random
import time
from fractions import Fraction
from functools import cache

import reference as R
from reference import atoms_of
from opgb import biorth, gram, numlin, quad, transforms
from opgb.errors import NonPositive, NotHankel
from tracing import JOB


class Op:
    __slots__ = ("kind", "args", "ctx", "result", "seconds")

    def __init__(self, kind, args, ctx, result, seconds):
        self.kind, self.args, self.ctx, self.result, self.seconds = kind, args, ctx, result, seconds


# How often, in seconds of op time, the reference op is timed between ops.
REF_EVERY_S = 0.25


def reference_op():
    """A fixed stdlib-only Fraction loop: the yardstick for the host's speed."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return acc


class Session:
    """Times each op; with ref_s, also times reference_op() between ops, at
    least every REF_EVERY_S of op time, and appends those times to ref_s."""

    def __init__(self, tracer=None, ref_s=None):
        self.tracer = tracer
        self.ops = []
        self.ref_s = ref_s
        self.since_ref = REF_EVERY_S

    def op(self, kind, fn, *args, ctx=None):
        if self.ref_s is not None and self.since_ref >= REF_EVERY_S:
            t0 = time.perf_counter()
            reference_op()
            self.ref_s.append(time.perf_counter() - t0)
            self.since_ref = 0.0
        t0 = time.perf_counter()
        try:
            out = fn(*args) if self.tracer is None else self.tracer.span(JOB, fn, *args)
        except Exception as exc:  # recorded and counted as a failed op
            out = exc
        seconds = time.perf_counter() - t0
        self.ops.append(Op(kind, args, ctx, out, seconds))
        self.since_ref += seconds
        return out


def run_pass(data, tracer=None, ref_s=None):
    """One pass over the session's fixed op list; returns the recorded ops."""
    s = Session(tracer, ref_s)
    frac = [Fraction(v) for v in data["points"]]
    pairs = list(zip(frac[:4], frac[4:8]))
    a, xi = Fraction(data["geronimus_root"]), Fraction(data["xi"])
    roots = [Fraction(v) for v in data["christoffel_roots"]]
    r_lin = Fraction(data["linear_root"])
    fams = []
    for name, spec in data["specs"].items():
        src = s.op("parse_measure_spec", gram.parse_measure_spec, spec)
        for n in data["sizes"]:
            g = s.op("gram_matrix", gram.gram_matrix, src, n, ctx=spec)
            f = s.op("build_families", biorth.build_families, g, ctx=spec)
            fams.append((name, spec, src, n, f))
    for name, spec, src, n, f in fams:
        discrete = spec["type"] == "discrete"
        j1 = s.op("spectral_matrix", biorth.spectral_matrix, f, 1)
        s.op("spectral_matrix", biorth.spectral_matrix, f, 2)
        if f.hankel:
            s.op("three_term_coeffs", biorth.three_term_coeffs, f)
        for x, y in pairs:
            s.op("cd_kernel", biorth.cd_kernel, f, n - 1, x, y)
            s.op("abc_kernel", biorth.abc_kernel, f.gram, n, x, y, ctx=f)
        if discrete:
            c1 = s.op("second_kind_values", biorth.second_kind_values, f, src, a, ctx=spec)
            for y in frac[:4]:
                s.op("mixed_cd_kernel", biorth.mixed_cd_kernel, f, c1, n - 2, y, ctx=spec)
        # J^j's operands grow with j: at n = 16 the top power j = 2k - 1 on
        # the 40-atom measure alone costs seconds, so it is asked for at n <= 12.
        if f.hankel:
            k = n - 1
            for j in (1, k, 2 * k - 1) if n <= 12 else (1, k):
                s.op("moment_from_spectral", biorth.moment_from_spectral, f, j, ctx=spec)
        for k in (1, n // 2, n - 1):
            s.op("char_poly", numlin.char_poly, j1.j.leading(k), ctx=(f, k))
        if f.hankel:
            ms = s.op("moments", gram.moments, src, 2 * n - 3, ctx=spec)
            # k <= 8 as in the acceptance suite; larger k hits the weight
            # cross-check defect, which cli-small carries.
            for k in (n // 2 - 1, min(n - 1, 8)):
                rule = s.op("gauss_rule", quad.gauss_rule, f, k, ctx=spec)
                if not isinstance(rule, Exception):
                    s.op("exactness_check", quad.exactness_check, rule, ms, ctx=spec)
        else:
            s.op("gauss_rule", quad.gauss_rule, f, 3, ctx=spec)
        w = transforms.PolyPerturbation.simple(*roots)
        fhat = s.op("build_families", biorth.build_families,
                    s.op("christoffel_gram", transforms.christoffel_gram, f.gram, w),
                    ctx=("christoffel", spec, f.size, roots))
        for deg in (0, n // 2 - 1, n - 3):
            s.op("christoffel_polys_general", transforms.christoffel_polys_general, f, w, deg, ctx=fhat)
        if discrete:
            xp = s.op("xi_pairing_single_mass", transforms.xi_pairing_single_mass, f, a, xi)
            col = s.op("geronimus_first_column", transforms.geronimus_first_column, src, a, xi, n)
            fch = s.op("build_families", biorth.build_families,
                       s.op("geronimus_gram", transforms.geronimus_gram, f.gram, a, col),
                       ctx=("geronimus", spec, a, xi))
            for deg in (1, n // 2, n - 1):
                s.op("geronimus_polys_deg1", transforms.geronimus_polys_deg1, f, c1, xp, deg, ctx=fch)
            wc, wg = transforms.PolyPerturbation.simple(r_lin), transforms.PolyPerturbation.simple(a)
            free = s.op("free_data", transforms.GeronimusFreeData.for_measure, src, wg, [xi])
            res = s.op("linear_spectral", transforms.linear_spectral, f, wc, wg, free, n - 1)
            moved = transforms.multiply_measure(transforms.geronimus_measure(src, a, xi), wc)
            s.op("build_families", biorth.build_families,
                 s.op("gram_matrix", gram.gram_matrix, moved, n - 1), ctx=("linear", spec, res))
    return s.ops


# ---- checks, run outside the timed region --------------------------------

def _polys(f, side):
    return [[Fraction(c) for c in (f.poly1(k) if side == 1 else f.poly2(k))] for k in range(f.size)]


def _spec_ms(spec, j_max):
    return _moments(json.dumps(spec, sort_keys=True), j_max)


@cache
def _moments(spec_json, j_max):
    return R.spec_moments(json.loads(spec_json), j_max)


def _table(spec):
    return [[Fraction(v) for v in row] for row in spec["entries"]]


def _family_ok(f, spec, rng, ms=None, table=None):
    """Pairings of f against moments (or a table) computed here; spec alone
    supplies them when neither is given."""
    if f.hankel != (table is None and (spec is None or spec["type"] != "bivariate")):
        return "wrong hankel flag"
    if ms is None and table is None:
        ms = _spec_ms(spec, 2 * f.size - 2) if spec["type"] != "bivariate" else None
        table = _table(spec) if ms is None else None
    n = f.size
    pairs = [(k, k) for k in range(n)] + [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    for k, l in pairs:
        got = R.pairing(f.poly1(k), f.poly2(l), ms=ms, table=table)
        if got != (f.h[k] if k == l else 0):
            return f"pairing <P1_{k}, P2_{l}> wrong"
    if spec is not None and spec["type"] == "classical":
        fam = (spec["family"], Fraction(spec.get("alpha", 0)), Fraction(spec.get("beta", 0)))
        if list(f.h) != R.classical_norms(*fam, n):
            return "H differs from the closed form"
    return None


def _transformed_ok(f, ctx, rng):
    """A family refactorized from a transformed Gram matrix, against moments
    (or table rows) of the transformed functional computed here."""
    kind, spec = ctx[0], ctx[1]
    if kind == "christoffel":
        size, roots = ctx[2], ctx[3]
        if spec["type"] == "bivariate":
            return _family_ok(f, None, rng, table=R.multiply_rows(_table(spec), roots))
        return _family_ok(f, None, rng, ms=R.multiply_moments(_spec_ms(spec, 2 * size), roots))
    if kind == "geronimus":
        a, xi = ctx[2], ctx[3]
        return _family_ok(f, None, rng, ms=R.geronimus_moments(atoms_of(spec), a, xi, 2 * f.size))
    return None


def _kernel(f, n, x, y, values1=None):
    acc = Fraction(0)
    for k in range(n + 1):
        left = values1[k] if values1 is not None else R.poly_eval(f.poly1(k), x)
        acc += R.poly_eval(f.poly2(k), y) * left / f.h[k]
    return acc


def _spectral_ok(f, sm):
    n = f.size
    p = _polys(f, sm.side)
    j = sm.j.rows
    for k in range(n - 1):
        for l in range(k + 1, n - 1):
            if j[k][l] != (1 if l == k + 1 else 0):
                return f"J[{k}][{l}] breaks the Hessenberg pattern"
        rest = [0] + p[k]
        rest = [c - (p[k + 1][i] if i < len(p[k + 1]) else 0) for i, c in enumerate(rest)]
        for m in range(k + 1):
            for i, c in enumerate(p[m]):
                rest[i] -= j[k][m] * c
        if any(rest):
            return f"x P_{k} != sum_j J[{k}][j] P_j"
    return None


def check_op(op, rng):
    """None if the op's result is right, else the reason."""
    kind, args, ctx, out = op.kind, op.args, op.ctx, op.result
    if kind == "gauss_rule":
        f, k = args
        if not f.hankel:
            return None if isinstance(out, NotHankel) else "expected NotHankel"
        if isinstance(out, NonPositive):
            real = R.real_root_count(f.poly1(k))
            return None if real < k else f"NonPositive, yet P_{k} has {real} real roots"
        if isinstance(out, Exception):
            return f"{type(out).__name__}: {out}"
        return _rule_ok(out, ctx)
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if kind == "parse_measure_spec":
        return None
    if kind == "gram_matrix":
        src, n = args
        if ctx is None:
            return None
        if ctx["type"] == "bivariate":
            want = [[Fraction(v) for v in row[:n]] for row in ctx["entries"][:n]]
        else:
            ms = _spec_ms(ctx, 2 * n - 2)
            want = [[ms[i + j] for j in range(n)] for i in range(n)]
        return None if out.rows == want else "Gram matrix differs from the moments"
    if kind == "build_families":
        return _family_ok(out, ctx, rng) if isinstance(ctx, dict) else _transformed_ok(out, ctx, rng)
    if kind == "spectral_matrix":
        return _spectral_ok(args[0], out)
    if kind == "three_term_coeffs":
        f = args[0]
        b, a = out
        for k in range(1, f.size):
            if b[k] != Fraction(f.h[k]) / f.h[k - 1]:
                return f"b_{k} != H_{k}/H_{k - 1}"
        p = _polys(f, 1)
        for k in range(f.size - 1):
            rest = [0] + p[k]
            for i, c in enumerate(p[k + 1]):
                rest[i] -= c
            for i, c in enumerate(p[k]):
                rest[i] -= a[k] * c
            if k:
                for i, c in enumerate(p[k - 1]):
                    rest[i] -= b[k] * c
            if any(rest):
                return f"three-term recurrence fails at k = {k}"
        return None
    if kind in ("cd_kernel", "abc_kernel"):
        f = args[0] if kind == "cd_kernel" else ctx
        n, x, y = (args[1], args[2], args[3]) if kind == "cd_kernel" else (args[1] - 1, args[2], args[3])
        return None if out == _kernel(f, n, x, y) else f"{kind} differs from sum P2(y) P1(x) / H"
    if kind == "second_kind_values":
        f, _, a = args
        atoms = atoms_of(ctx)
        for side, vals in ((1, out.values1), (2, out.values2)):
            if list(vals) != [R.cauchy(atoms, p, a) for p in _polys(f, side)]:
                return f"C_{side},k(a) differs from <mu, P_k(x)/(a - x)>"
        return None
    if kind == "mixed_cd_kernel":
        f, c1, n, y = args
        vals = [R.cauchy(atoms_of(ctx), f.poly1(k), c1.point) for k in range(n + 1)]
        return None if out == _kernel(f, n, None, y, vals) else "mixed kernel differs"
    if kind == "moment_from_spectral":
        f, j = args
        return None if out == _spec_ms(ctx, 2 * f.size)[j] else f"m_{j} differs"
    if kind == "char_poly":
        f, k = ctx
        return None if list(out) == list(f.poly1(k)) else f"char_poly(J^[{k}]) != P_{k}"
    if kind == "moments":
        return None if list(out) == _spec_ms(ctx, args[1]) else "moments differ"
    if kind == "exactness_check":
        rule, ms = args
        worst, scale = 0.0, 1.0
        for j, m in enumerate(ms[: 2 * rule.order]):
            terms = [w * x**j for x, w in zip(rule.nodes, rule.weights)]
            worst = max(worst, abs(sum(terms) - float(m)))
            scale = max(scale, sum(abs(t) for t in terms))
        return None if abs(out - worst) <= R.FLOAT_RTOL * scale else "exactness report differs"
    if kind in ("christoffel_polys_general", "geronimus_polys_deg1"):
        # ctx is the directly refactorized family, itself checked when built.
        p1, h, p2 = out
        deg = args[-1]
        same = list(p1) == list(ctx.poly1(deg)) and h == ctx.h[deg] and \
            R.poly_trim(p2) == R.poly_trim(ctx.poly2(deg))
        return None if same else f"formula differs from direct refactorization at degree {deg}"
    if kind == "linear_spectral":
        return None  # checked with the direct refactorization that follows it
    if kind == "free_data" or kind.startswith(("christoffel_gram", "geronimus", "xi_pairing")):
        return None  # inputs to a checked family
    return None


def _rule_ok(rule, spec):
    ms = _spec_ms(spec, 2 * rule.order)
    for j in range(2 * rule.order):
        terms = [w * x**j for x, w in zip(rule.nodes, rule.weights)]
        if not R.rel_close(sum(terms), ms[j], sum(abs(t) for t in terms)):
            return f"rule is not exact on x^{j}"
    return None


def check_linear(op, rng, data):
    _, spec, res = op.ctx
    direct = op.result
    if isinstance(res, Exception) or isinstance(direct, Exception):
        return "linear spectral transform refused"
    a, xi = Fraction(data["geronimus_root"]), Fraction(data["xi"])
    ms = R.multiply_moments(R.geronimus_moments(atoms_of(spec), a, xi, 2 * res.family.size + 2),
                            [Fraction(data["linear_root"])])
    if list(res.moments) != ms[: len(res.moments)]:
        return "transformed moments differ"
    if res.family.h != direct.h or res.family.s1 != direct.s1 or res.family.s2 != direct.s2:
        return "linear spectral family differs from direct refactorization"
    return _family_ok(direct, None, rng, ms)


def check_pass(ops, data, seed):
    """List of (op index, reason) for every failed op."""
    rng = random.Random(f"lib-session-check:{seed}")
    bad = []
    for i, op in enumerate(ops):
        if op.kind == "build_families" and isinstance(op.ctx, tuple) and op.ctx[0] == "linear":
            reason = check_linear(op, rng, data)
        else:
            reason = check_op(op, rng)
        if reason:
            bad.append((i, f"{op.kind}: {reason}"))
    return bad
