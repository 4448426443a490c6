"""Child process of the benchmark: the warm lib-session, and traced runs.

    python3 perfbench/worker.py session lib-session SEED SECONDS WORKDIR RESULT
    python3 perfbench/worker.py trace WORKLOAD SEED SECONDS WORKDIR RESULT

run.py starts it with PYTHONPATH pointing at the checkout's src/. "session"
runs timed lib-session passes; "trace" runs pairs of passes, one untraced
and one traced, all in this one process (CLI jobs through opgb.cli.main,
which builds the JobSpec and calls cli.run). Either stops once SECONDS of
pass time are spent, and writes its result to RESULT as JSON.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import checks
import inputs
import session
from tracing import JOB, Tracer


class LibSession:
    """lib-session passes; a result is the list of recorded ops."""

    def __init__(self, seed, timed):
        self.seed = seed
        self.data = inputs.lib_session(seed)
        # Timed runs interleave the reference op; traced runs leave it out so
        # that the untraced and traced passes do the same work.
        self.ref_s = [] if timed else None

    def run(self, tracer):
        return session.run_pass(self.data, tracer, self.ref_s)

    def digests(self, ops):
        return {f"{op.kind}#{i}": hashlib.sha256(repr(op.result).encode()).hexdigest() for i, op in enumerate(ops)}

    def check(self, ops):
        return {f"{ops[i].kind}#{i}": reason for i, reason in session.check_pass(ops, self.data, self.seed)}

    def op_seconds(self, ops):
        return [op.seconds for op in ops]

    def out_bytes(self, ops):
        return 0


class CliInProcess:
    """A CLI workload's job list run in this process; a result maps job name
    to (exit code, output text, uncaught error, seconds)."""

    def __init__(self, workload, seed, work):
        import opgb.cli

        self.cli = opgb.cli
        self.work = work
        self.specs, self.jobs = inputs.CLI_WORKLOADS[workload](seed)
        self.seed = seed
        self.ref_s = None
        for name, spec in self.specs.items():
            (work / f"{name}.json").write_text(json.dumps(spec))

    def _job(self, job):
        out_path = self.work / f"{job.name}.out"
        out_path.unlink(missing_ok=True)
        argv = job.argv(str(self.work / f"{job.spec}.json"), str(out_path))
        error = ""
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # uncaught library error: exit 1 in a real process
            code, error = 1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        return code, out_path.read_text() if out_path.exists() else "", error, seconds

    def run(self, tracer):
        if tracer is None:
            return {job.name: self._job(job) for job in self.jobs}
        return {job.name: tracer.span(JOB, self._job, job) for job in self.jobs}

    def digests(self, results):
        return {name: (code, text) for name, (code, text, _, _) in results.items()}

    def check(self, results):
        ctx = {"specs": self.specs, "jobs": self.jobs, "seed": self.seed,
               "outputs": {name: text for name, (_, text, _, _) in results.items()}}
        bad = {}
        for job in self.jobs:
            code, text, error, _ = results[job.name]
            reason = checks.verdict(job, code, text, error, ctx, checks.pinned_digests())
            if reason:
                bad[job.name] = reason
        return bad

    def op_seconds(self, results):
        return [r[3] for r in results.values()]

    def out_bytes(self, results):
        return sum(len(text.encode()) for _, text, _, _ in results.values())


def repeat(runner, seconds, traced):
    """Passes (or untraced/traced pairs) until seconds of pass time are spent.

    The first untraced pass is checked in full; every later pass must
    reproduce it, and repeats its verdicts.
    """
    out = {"untraced_s": [], "traced_s": [], "pass_op_s": [], "op_s": [], "layers": [],
           "attempted": 0, "failed": 0, "failures": {}}
    first = first_bad = None
    spent = 0.0
    while not out["untraced_s"] or spent < seconds:
        for tracer in (None, Tracer()) if traced else (None,):
            if tracer is not None:
                tracer.install()
                tracer.on = True
            res = None  # let the previous pass's results go before this one runs
            t0 = time.perf_counter()
            try:
                res = runner.run(tracer)
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.on = False
                    tracer.uninstall()
            digests = runner.digests(res)
            if first is None:
                # The process's peak resident set over start-up and one pass,
                # taken before the checks allocate anything.
                out["rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
                first, first_bad = digests, runner.check(res)
                out["out_bytes"] = runner.out_bytes(res)
            bad = {key: first_bad.get(key) if value == first.get(key) else "result differs from the checked first pass"
                   for key, value in digests.items() if value != first.get(key) or key in first_bad}
            out["attempted"] += len(digests)
            out["failed"] += len(bad)
            for key, reason in bad.items():
                out["failures"].setdefault(key, reason)
            spent += wall
            if tracer is None:
                ops = runner.op_seconds(res)
                out["untraced_s"].append(wall)
                out["pass_op_s"].append(sum(ops))
                out["op_s"] += ops
            else:
                self_s, calls, roots = tracer.report()
                out["traced_s"].append(wall)
                out["layers"].append({"self_s": self_s, "calls": calls, "root_s": roots, "wall_s": wall,
                                      "h_bits": tracer.h_bits, "s_bits": tracer.s_bits,
                                      "companion": tracer.companion})
    out["ref_s"] = runner.ref_s or []
    return out


def main(argv):
    mode, workload, seed, seconds, work, result = argv
    seed, seconds, work = int(seed), float(seconds), Path(work)
    runner = LibSession(seed, mode == "session") if workload == "lib-session" else CliInProcess(workload, seed, work)
    out = repeat(runner, seconds, traced=mode == "trace")
    Path(result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
