"""Time cold `python -m opgb.cli` launches of two or more checkouts, interleaved.

Every cli-small and cli-families job of perfbench's inputs runs as a fresh
process of each tree in turn, and so does `import opgb, opgb.cli`. The jobs
come from the first tree's perfbench/inputs.py, which is only read, as
scripts/output_digests.py reads it. Each round runs every job once per
tree, back to back, and alternates which tree goes first, so drift in the
host's speed falls on all trees alike. Children get PYTHONPATH=<tree>/src
and PYTHONHASHSEED=0, as perfbench's own launches do; unless
PYTHONDONTWRITEBYTECODE is set they write __pycache__ into each tree, and
every launch after the first then skips compiling opgb.

It prints each job's median seconds per tree and, per workload, the sum of
those medians; it exits 1 if any job's exit code or output bytes differ
between trees or rounds.

    python scripts/launch_times.py --tree ../parent --tree . --reps 6
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("cli-small", "cli-families")
IMPORT = "import opgb, opgb.cli"


def launch(tree, argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, help="root of a checkout (repeat)")
    parser.add_argument("--reps", type=int, default=5, help="rounds over every job")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    trees = [Path(t).resolve() for t in args.tree]
    sys.path.insert(0, str(trees[0] / "perfbench"))
    import inputs

    times = {}  # (workload, job name) -> tree index -> seconds per round
    outputs = {}  # (workload, job name) -> first (exit code, output) seen
    differ = set()
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        jobs = [("setup", IMPORT, ["-c", IMPORT], None)]
        for workload in WORKLOADS:
            specs, listed = inputs.CLI_WORKLOADS[workload](args.seed)
            (work / workload).mkdir()
            for name, spec in specs.items():
                (work / workload / f"{name}.json").write_text(json.dumps(spec))
            for job in listed:
                out = f"{workload}/{job.name}.out"
                argv = ["-m", "opgb.cli", *job.argv(f"{workload}/{job.spec}.json", out)]
                jobs.append((workload, job.name, argv, work / out))
        for rep in range(args.reps):
            order = list(range(len(trees)))
            if rep % 2:
                order.reverse()
            for workload, name, argv, out in jobs:
                for i in order:
                    if out is not None:
                        out.unlink(missing_ok=True)
                    seconds, code = launch(trees[i], argv, work)
                    times.setdefault((workload, name), {}).setdefault(i, []).append(seconds)
                    result = (code, out.read_bytes() if out is not None and out.exists() else b"")
                    if outputs.setdefault((workload, name), result) != result:
                        differ.add(f"{workload}/{name}")

    width = max(len(f"{w}/{n}") for w, n in times)
    print(f"{'median s':<{width}}  " + "  ".join(f"tree {i + 1:<3}" for i in range(len(trees))))
    totals = {}
    for (workload, name), per_tree in times.items():
        medians = [statistics.median(per_tree[i]) for i in range(len(trees))]
        totals.setdefault(workload, [0.0] * len(trees))
        totals[workload] = [t + m for t, m in zip(totals[workload], medians)]
        print(f"{workload + '/' + name:<{width}}  " + "  ".join(f"{m:8.4f}" for m in medians))
    for workload in WORKLOADS:
        count = sum(1 for w, _ in times if w == workload)
        label = f"sum {workload} ({count} jobs)"
        print(f"{label:<{width}}  " + "  ".join(f"{s:8.4f}" for s in totals[workload]))
    for i, tree in enumerate(trees):
        print(f"tree {i + 1}: {tree}")
    if differ:
        print("outputs differ: " + ", ".join(sorted(differ)), file=sys.stderr)
        return 1
    print(f"outputs equal across {len(trees)} trees and {args.reps} rounds", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
