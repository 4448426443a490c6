"""opgb benchmark: cold-CLI and library-session workloads, checked outputs.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds src/opgb. Workloads are
cli-families, cli-small and lib-session, or "all" to run the three in turn.
With --trace 0 the last line is a JSON object with the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a separate traced run.
The lines before it are a human-readable report with sample counts, the
failing jobs and the environment. perfbench/README.md describes each
metric and workload.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli-families", "lib-session", "cli-small")
SETUP_LAUNCHES = 10
SETUP_CODE = "import opgb, opgb.cli"
# The reference process: a start-up with numpy and a fixed Fraction loop,
# no opgb. Timed between CLI jobs, at least every REF_EVERY_S of job time,
# it tracks the host's speed, which drifts by tens of percent over minutes.
# Its loop is sized like each workload's own mix of start-up and arithmetic.
REF_CODE = """import numpy
from fractions import Fraction
acc = Fraction(0)
for i in range(1, %d):
    acc += Fraction(i, i + 7) * Fraction(3, i + 1)
"""
REF_LOOPS = {"cli-small": 1500, "cli-families": 20000}
REF_EVERY_S = 1.5
NUMPY_LAUNCHES = 5
MAX_FAIL_LINES = 25

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "job_p50_ref": "ref", "peak_rss_mb": "MB"}
PER_LAYER = {
    "numlin.ldu_factorize.self_s": "s",
    "numlin.unit_lower_inverse.self_s": "s",
    "numlin.unit_lower_inverse.calls": "count",
    "biorth.build_families.self_s": "s",
    "biorth.build_families.calls": "count",
    "bits.h_max": "bits",
    "bits.s_max": "bits",
    "numlin.matmul.self_s": "s",
    "numlin.matmul.calls": "count",
    "numlin.char_poly.self_s": "s",
    "numlin.solve.self_s": "s",
    "biorth.spectral_matrix.self_s": "s",
    "biorth.spectral_matrix.calls": "count",
    "biorth.moment_from_spectral.self_s": "s",
    "biorth.kernels.self_s": "s",
    "biorth.second_kind.self_s": "s",
    "transforms.christoffel.self_s": "s",
    "transforms.geronimus.self_s": "s",
    "transforms.linear_spectral.self_s": "s",
    "quad.gauss_rule.self_s": "s",
    "quad.exactness_check.self_s": "s",
    "quad.companion.count": "count",
    "gram.gram_matrix.self_s": "s",
    "gram.moments.self_s": "s",
    "gram.cauchy_moments.self_s": "s",
    "classical.self_s": "s",
    "cli.run.self_s": "s",
    "cli.canonical_json.self_s": "s",
    "cli.out_bytes": "bytes",
    "import.numpy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def launch(argv, stderr_path=None):
    """Run one child to completion; returns (seconds, exit code, peak RSS in MB)."""
    t0 = time.perf_counter()
    with open(stderr_path or os.devnull, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return elapsed, proc.returncode, usage.ru_maxrss / 1024


def launch_times(code, count, warm_up=False):
    """Wall times of count fresh interpreters running code; a warm-up launch
    first compiles the package's bytecode."""
    if warm_up:
        launch([sys.executable, "-c", code])
    return [launch([sys.executable, "-c", code])[0] for _ in range(count)]


def numpy_import_s():
    """Time a fresh process spends in `import numpy`, measured inside it."""
    code = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
    out = []
    for _ in range(NUMPY_LAUNCHES):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), cwd=ROOT, check=True)
        out.append(float(res.stdout))
    return statistics.median(out)


def environment(seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        sha = res.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "opgb").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---- timed workloads ------------------------------------------------------

def run_cli(workload, seed, seconds, work):
    """Cold-process passes over the job list until seconds of job time are spent."""
    specs, jobs = inputs.CLI_WORKLOADS[workload](seed)
    for name, spec in specs.items():
        (work / f"{name}.json").write_text(json.dumps(spec))
    ctx = {"specs": specs, "jobs": jobs, "seed": seed, "outputs": {}}
    pinned = checks.pinned_digests()
    passes, op_s, rss, ref_s = [], [], [], []
    since_ref = REF_EVERY_S
    first = {}
    failed, failures = 0, {}
    while not passes or sum(passes) < seconds:
        runs = []
        for job in jobs:
            out_path, err_path = work / f"{job.name}.out", work / f"{job.name}.err"
            out_path.unlink(missing_ok=True)
            if since_ref >= REF_EVERY_S:
                ref_s.append(launch([sys.executable, "-c", REF_CODE % REF_LOOPS[workload]])[0])
                since_ref = 0.0
            argv = [sys.executable, "-m", "opgb.cli", *job.argv(str(work / f"{job.spec}.json"), str(out_path))]
            seconds_taken, code, peak = launch(argv, err_path)
            since_ref += seconds_taken
            op_s.append(seconds_taken)
            rss.append(peak)
            runs.append((job, code, out_path.read_text() if out_path.exists() else "", err_path))
        passes.append(sum(op_s[-len(jobs):]))
        if not first:
            ctx["outputs"] = {job.name: text for job, _, text, _ in runs}
        for job, code, text, err_path in runs:
            if job.name not in first:
                lines = err_path.read_text().strip().splitlines()
                reason = checks.verdict(job, code, text, lines[-1] if lines else "", ctx, pinned)
                first[job.name] = (code, text, reason)
            elif first[job.name][:2] != (code, text):
                reason = "output differs from the first pass"
            else:
                reason = first[job.name][2]
            if reason:
                failed += 1
                failures.setdefault(job.name, reason)
    return {
        "pass_s": passes, "op_s": op_s, "rss_mb": rss, "ref_s": ref_s,
        "attempted": len(op_s), "failed": failed, "failures": failures,
    }


def run_worker(mode, workload, seed, seconds, work):
    result = work / f"{mode}.json"
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(seconds), str(work), str(result)]
    _, code, _ = launch(argv, work / f"{mode}.err")
    if code != 0:
        sys.stderr.write((work / f"{mode}.err").read_text())
        raise SystemExit(f"{mode} worker for {workload} exited {code}")
    out = json.loads(result.read_text())
    out["pass_s"] = out["pass_op_s"]
    return out


# ---- reporting ------------------------------------------------------------

def end_to_end(res, setup):
    """The end-to-end metrics and the report lines that give their samples.

    wall_ref and job_p50_ref are wall_s and job_p50_s divided by the median
    time of the reference op timed through the same run, so they follow the
    program and not the host's speed of the moment. They are the gated ones;
    the times in seconds are reported beside them.
    """
    op_s, pass_s, ref_s = res["op_s"], res["pass_s"], res["ref_s"]
    # Every pass runs the same op list; summing each op's median over the
    # passes keeps a pass that meets a slow spell of the host from setting it.
    per_pass = len(op_s) // len(pass_s)
    wall = sum(statistics.median(op_s[j::per_pass]) for j in range(per_pass))
    p50 = statistics.median(op_s)
    ref = statistics.median(ref_s)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_ref": wall / ref,
        "job_p50_ref": p50 / ref,
        "peak_rss_mb": max(res["rss_mb"]),
    }
    q = quartiles
    lines = [
        f"  setup_s      {metrics['setup_s']:.4f} s    median of {len(setup)} launches of `{SETUP_CODE}`, "
        f"half before and half after the workload (q1 {q(setup)[0]:.4f}, q3 {q(setup)[1]:.4f})",
        f"  ref_s        {ref:.4f} s    median of {len(ref_s)} reference ops timed through the run "
        f"(q1 {q(ref_s)[0]:.4f}, q3 {q(ref_s)[1]:.4f})",
        f"  wall_s       {wall:.4f} s    sum over the {per_pass} ops of a pass of each op's median over "
        f"{len(pass_s)} passes (pass times q1 {q(pass_s)[0]:.4f}, q3 {q(pass_s)[1]:.4f})",
        f"  wall_ref     {metrics['wall_ref']:.4f} ref  wall_s / ref_s",
        f"  job_p50_s    {p50:.4f} s    median of {len(op_s)} ops",
        f"  job_p50_ref  {metrics['job_p50_ref']:.4f} ref  job_p50_s / ref_s",
    ]
    # A percentile is reported only with at least ten samples beyond it.
    if len(op_s) >= 100:
        p90 = statistics.quantiles(op_s, n=10)[-1]
        lines.append(f"  job_p90_s    {p90:.4f} s    p90 of {len(op_s)} ops ({p90 / ref:.4f} ref)")
    else:
        lines.append(f"  job_p90_s    not defined: {len(op_s)} ops give fewer than 10 beyond p90")
    lines.append(f"  fail_ratio   {res['failed'] / res['attempted']:.4f}      "
                 f"{res['failed']} failed of {res['attempted']} attempted ops")
    lines.append(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   max over {len(res['rss_mb'])} processes")
    return metrics, lines


def per_layer(res, numpy_s):
    """Per-layer metrics: medians over the traced passes of self times; counts
    and bit sizes, which repeat exactly, from the first traced pass."""
    layers = res["layers"]
    first = layers[0]
    metrics = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            metrics[name] = statistics.median(p["self_s"].get(layer, 0.0) for p in layers)
        elif kind == "calls":
            metrics[name] = first["calls"].get(layer, 0)
    traced, untraced = statistics.median(res["traced_s"]), statistics.median(res["untraced_s"])
    metrics.update({
        "bits.h_max": first["h_bits"],
        "bits.s_max": first["s_bits"],
        "quad.companion.count": first["companion"],
        "cli.out_bytes": res["out_bytes"],
        "import.numpy_s": numpy_s,
        "trace.wall_s": traced,
        "trace.overhead_s": traced - untraced,
    })
    lines = [f"  {name:36s} {metrics[name]:.6g} {PER_LAYER[name]}" for name in PER_LAYER]
    lines.append(f"  medians over {len(layers)} traced and {len(res['untraced_s'])} untraced in-process passes")
    # Every job or library call is a root span, so self times partition the
    # root spans exactly, and the roots fill the traced wall but for the loop.
    sums = [sum(p["self_s"].values()) for p in layers]
    consistent = all(
        abs(total - p["root_s"]) <= 1e-6 * max(1.0, p["root_s"]) and 0.95 * p["wall_s"] <= p["root_s"] <= p["wall_s"]
        for total, p in zip(sums, layers)
    )
    lines.append(f"  self times {'add' if consistent else 'DO NOT add'} up: in each traced pass they sum to the "
                 f"root spans, which cover {min(p['root_s'] / p['wall_s'] for p in layers):.1%} or more "
                 f"of the traced wall (first pass: {sums[0]:.4f} s of {layers[0]['wall_s']:.4f} s)")
    return metrics, lines, consistent


def run_workload(workload, seed, seconds, trace):
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            res = run_worker("trace", workload, seed, seconds, work)
            metrics, lines, consistent = per_layer(res, numpy_import_s())
            units = PER_LAYER
        else:
            setup = launch_times(SETUP_CODE, SETUP_LAUNCHES // 2, warm_up=True)
            if workload == "lib-session":
                res = run_worker("session", workload, seed, seconds, work)
            else:
                res = run_cli(workload, seed, seconds, work)
            setup += launch_times(SETUP_CODE, SETUP_LAUNCHES - len(setup))
            metrics, lines = end_to_end(res, setup)
            units, consistent = END_TO_END, True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    jobs = inputs.CLI_WORKLOADS[workload](seed)[1] if workload in inputs.CLI_WORKLOADS else []
    defects = {job.name: job.defect for job in jobs if job.defect}
    unexpected = {name: why for name, why in res["failures"].items() if name not in defects}
    for name, why in sorted(res["failures"].items())[:MAX_FAIL_LINES]:
        tag = f" [known defect: {defects[name]}]" if name in defects else ""
        lines.append(f"  FAIL {name}: {why}{tag}")
    if len(res["failures"]) > MAX_FAIL_LINES:
        lines.append(f"  ... and {len(res['failures']) - MAX_FAIL_LINES} more failing ops")
    return {
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "attempted": res["attempted"],
        "failed": res["failed"],
        "correct": not unexpected and consistent,
        "lines": lines,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "opgb" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no opgb sources under {SRC}; run from a checkout of the repository\n")
        return 2
    env = environment(args.seed)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    print(f"opgb benchmark: seed {args.seed}, {args.seconds:g} s per workload, "
          f"{'traced run, per-layer metrics' if args.trace else 'end-to-end metrics'}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, res in results.items():
        print(f"{name}:")
        print("\n".join(res["lines"]))
    if args.workload == "all":
        metrics = {f"{name}.{m}": v for name, res in results.items() for m, v in res["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(res["correct"] for res in results.values()),
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": sum(res["failed"] for res in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
