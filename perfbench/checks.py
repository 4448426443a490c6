"""Output checks for the CLI jobs, against the references in reference.py.

Each check takes (job, output text, context) and returns None when the
output is right, or a one-line reason. The context holds the pass's specs
and the outputs of the other jobs, so that a float job can be held against
the checked exact job on the same spec.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import reference as R


def arg(job, flag, default=None):
    args = list(job.args)
    for i, a in enumerate(args):
        if a == flag:
            return args[i + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return default


def args_all(job, flag):
    return [a.split("=", 1)[1] for a in job.args if a.startswith(flag + "=")]


def is_float(job):
    return arg(job, "--mode") == "float"


def sample_pairs(n, rng):
    """All (k, l) for small n; otherwise the corner and a few random pairs."""
    if n <= 8:
        return [(k, l) for k in range(n) for l in range(n)]
    pairs = [(n - 1, n - 1), (n - 1, n - 2), (n - 2, n - 1)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]
    return pairs


def check_family(doc, ms=None, spec=None, rng=None):
    """Exact family: <P1_k, P2_l> = delta_kl H_k from independent moments."""
    h = doc["h"]
    for k, l in sample_pairs(len(h), rng or random.Random(0)):
        p1 = [Fraction(c) for c in doc["p1"][k]]
        p2 = [Fraction(c) for c in doc["p2"][l]]
        if p1[-1] != 1 or p2[-1] != 1 or len(p1) != k + 1 or len(p2) != l + 1:
            return f"P_{k} or P_{l} is not monic of its degree"
        want = Fraction(h[k]) if k == l else 0
        if R.pairing(p1, p2, spec=spec, ms=ms) != want:
            return f"pairing <P1_{k}, P2_{l}> != {'H_k' if k == l else '0'}"
    return None


def compare_float(doc, exact, keys=("h", "p1", "p2")):
    """Float document against the checked exact one, at FLOAT_RTOL."""
    for key in keys:
        rows = doc[key] if key != "h" else [doc["h"]]
        want_rows = exact[key] if key != "h" else [exact["h"]]
        if len(rows) != len(want_rows):
            return f"{key} has {len(rows)} rows, exact has {len(want_rows)}"
        for i, (row, want) in enumerate(zip(rows, want_rows)):
            # Float rows may keep a trailing roundoff coefficient that exact rows trim.
            want = [Fraction(v) for v in want] + [Fraction(0)] * (len(row) - len(want))
            row = list(row) + [0.0] * (len(want) - len(row))
            scale = float(max(abs(v) for v in want))
            if not all(R.rel_close(g, w, scale) for g, w in zip(row, want)):
                return f"{key}[{i}] differs from exact beyond rtol {R.FLOAT_RTOL}"
    return None


def exact_twin(job, ctx):
    """Output of the exact job with the same command, spec and arguments."""
    want = tuple(a for a in job.args if a not in ("--mode", "float"))
    for other in ctx["jobs"]:
        if other.command == job.command and other.spec == job.spec and tuple(other.args) == want:
            text = ctx["outputs"].get(other.name)
            return json.loads(text) if text else None
    return None


def classical_params(spec):
    return spec["family"], Fraction(spec.get("alpha", 0)), Fraction(spec.get("beta", 0))


def check_polys(job, doc, ctx):
    spec = ctx["specs"][job.spec]
    n = int(arg(job, "--n"))
    h = doc["h"]
    if len(h) != n or len(doc["p1"]) != n or len(doc["p2"]) != n:
        return f"expected {n} polynomials"
    if doc["hankel"] != (spec["type"] != "bivariate"):
        return "wrong hankel flag"
    if spec["type"] == "classical":
        want = R.classical_norms(*classical_params(spec), n)
        if is_float(job):
            if not all(R.rel_close(g, w) for g, w in zip(h, want)):
                return f"H differs from the closed form beyond rtol {R.FLOAT_RTOL}"
            return None
        if [Fraction(v) for v in h] != want:
            return "H differs from the closed form"
    if is_float(job):
        exact = exact_twin(job, ctx)
        return "no exact twin" if exact is None else compare_float(doc, exact)
    ms = R.spec_moments(spec, 2 * n - 2)
    bad = check_family(doc, ms=ms, spec=spec, rng=random.Random(f"{ctx['seed']}:{job.name}"))
    if bad or "jacobi_band" not in doc:
        return bad
    band = doc["jacobi_band"]
    for k in range(1, n):
        if Fraction(band["b"][k - 1]) != Fraction(h[k]) / Fraction(h[k - 1]):
            return f"jacobi band b_{k} != H_{k}/H_{k - 1}"
    k = n - 2
    pk, pk1, pkm = (([Fraction(c) for c in doc["p1"][i]] if i >= 0 else [0]) for i in (k, k + 1, k - 1))
    rhs = [pk1[i] - (pk[i - 1] if i else 0) + Fraction(band["a"][k]) * (pk[i] if i <= k else 0)
           + Fraction(band["b"][k - 1] if k else 0) * (pkm[i] if i < len(pkm) else 0)
           for i in range(k + 2)]
    if any(rhs):
        return f"three-term recurrence fails at k = {k}"
    return None


def check_quadrature(job, doc, ctx):
    k = int(arg(job, "--k"))
    nodes, weights = doc["nodes"], doc["weights"]
    if len(nodes) != k or len(weights) != k or doc["method"] not in ("eigh", "companion"):
        return "malformed rule"
    ms = R.spec_moments(ctx["specs"][job.spec], 2 * k - 1)
    for j in range(2 * k):
        terms = [w * x**j for x, w in zip(nodes, weights)]
        if not R.rel_close(sum(terms), ms[j], sum(abs(t) for t in terms)):
            return f"rule is not exact on x^{j}"
    return None


def _transform_check(job, doc, ctx, ms):
    if doc.get("matches_factorization") is False:
        return "formula route disagrees with direct factorization"
    if is_float(job):
        exact = exact_twin(job, ctx)
        return "no exact twin" if exact is None else compare_float(doc, exact)
    return check_family(doc, ms=ms)


def check_christoffel(job, doc, ctx):
    n = int(arg(job, "--n"))
    roots = [Fraction(r) for r in args_all(job, "--root")]
    ms = R.spec_moments(ctx["specs"][job.spec], 2 * n + len(roots))
    return _transform_check(job, doc, ctx, R.multiply_moments(ms, roots))


def check_geronimus(job, doc, ctx):
    n = int(arg(job, "--n"))
    a, xi = Fraction(arg(job, "--g-root")), Fraction(arg(job, "--xi", "0"))
    ms = R.geronimus_moments(R.atoms_of(ctx["specs"][job.spec]), a, xi, 2 * n)
    return _transform_check(job, doc, ctx, ms)


def check_linear_spectral(job, doc, ctx):
    n = int(arg(job, "--n"))
    a, xi = Fraction(arg(job, "--g-root")), Fraction(arg(job, "--xi", "0"))
    ms = R.geronimus_moments(R.atoms_of(ctx["specs"][job.spec]), a, xi, 2 * n + 2)
    ms = R.multiply_moments(ms, [Fraction(r) for r in args_all(job, "--root")])
    if [Fraction(v) for v in doc["moments"]] != ms[: len(doc["moments"])]:
        return "transformed moments differ"
    return _transform_check(job, doc, ctx, ms)


def check_classical_check(job, doc, ctx):
    fam, alpha, beta = classical_params(ctx["specs"][job.spec])
    n = int(arg(job, "--n"))
    if not doc["passed"] or not all(c["passed"] for c in doc["checks"]) or len(doc["checks"]) != 3:
        return "classical checks did not pass"
    if [Fraction(v) for v in doc["eigenvalues"]] != [R.classical_eigenvalue(fam, alpha, beta, m) for m in range(n + 1)]:
        return "eigenvalues differ from n (A + (n-1) a)"
    return None


def check_identities(job, doc, ctx):
    if not doc["passed"] or not doc["checks"]:
        return "identity suite did not pass"
    if not is_float(job) and any(c["residual"] != 0 for c in doc["checks"]):
        return "nonzero residual in exact mode"
    return None


def check_plot(job, text, ctx):
    """CSV columns P_k(x) against the monic three-term recurrence of a
    symmetric classical weight, b_k from the closed-form norms."""
    lines = text.strip().split("\n")
    head = lines[0].split(",")
    cols = len(head) - 1
    n = int(arg(job, "--n"))
    if head[0] != "x" or cols < n or head[1:] != [f"P{k}" for k in range(cols)]:
        return "malformed header"
    norms = R.classical_norms(*classical_params(ctx["specs"][job.spec]), cols)
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != int(arg(job, "--samples", 20)):
        return "wrong sample count"
    for k in range(cols):
        want = []
        for row in rows:
            x, prev, cur = row[0], 0.0, 1.0
            for i in range(k):
                prev, cur = cur, x * cur - float(norms[i] / norms[i - 1] if i else 0) * prev
            want.append(cur)
        scale = max(abs(v) for v in want)
        if not all(R.rel_close(row[k + 1], w, scale) for row, w in zip(rows, want)):
            return f"column P{k} differs from the recurrence"
    return None


def check_refusal(job, doc, ctx):
    _, name, *index = job.check.split(":")
    if doc.get("error") != name:
        return f"expected {name}, got {doc.get('error')}"
    if index and doc.get("index") != int(index[0]):
        return f"expected index {index[0]}, got {doc.get('index')}"
    return None


CHECKS = {
    "polys": check_polys,
    "quadrature": check_quadrature,
    "christoffel": check_christoffel,
    "geronimus": check_geronimus,
    "linear_spectral": check_linear_spectral,
    "classical_check": check_classical_check,
    "identities": check_identities,
    "plot": check_plot,
    "refusal": check_refusal,
}


def check_output(job, text, ctx):
    """None if the job's output is right, else the reason."""
    fn = CHECKS[job.check.split(":")[0]]
    try:
        return fn(job, text if job.check == "plot" else json.loads(text), ctx)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


@cache
def pinned_digests():
    """sha256 of the exact output of every fixed-input job, pinned at the
    commit that defined the benchmark (exact output must stay byte-identical)."""
    return json.loads((Path(__file__).parent / "digests.json").read_text())


def verdict(job, code, text, error, ctx, pinned):
    """None if the job did what it must, else the reason."""
    if code != job.code:
        detail = error
        if not detail and text.startswith("{"):
            doc = json.loads(text)
            detail = f"{doc.get('error')} {doc.get('index', '')}".strip()
        return f"exit {code}, expected {job.code}" + (f": {detail}" if detail else "")
    if job.pinned:
        want = pinned.get(job.name)
        if want != hashlib.sha256(text.encode()).hexdigest():
            return "output digest differs from the pinned one"
    return check_output(job, text, ctx)
