"""Show where full garbage collections land in perfbench's traced passes.

perfbench's traced run (`perfbench/run.py --trace 1`) requires the root spans
of every traced pass to cover at least 95% of its wall time. A full
(generation-2) collection of the cyclic garbage collector that starts while
no span is open counts as uncovered time, and so does one inside
Tracer.observe called straight from a root span (observe moves its own time
out of the open span). This script runs perfbench's trace worker loop
(worker.repeat, untraced and traced passes in turn) in this process, with a
gc.callbacks hook, and prints each traced pass's root-span coverage and
every generation-2 collection: its duration, and the innermost open span,
"Tracer.observe (uncovered)", or none with the perfbench line it started from.

opgb and perfbench's modules are imported from the given checkout, which is
only read; working files go to a temporary directory. As perfbench's workers
do, it runs with PYTHONHASHSEED=0 (it starts itself again if that is not
set). What this script imports itself shifts the collector's thresholds a
little, so a collection may land in another pass than in perfbench's worker:
the output shows how long the collections take and where they can land.

    python scripts/trace_gc.py --tree . --workload lib-session --seed 1 --seconds 25
"""

import argparse
import gc
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLOOR = 0.95
OBSERVE = "Tracer.observe (uncovered)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, help="root of the checkout to run")
    parser.add_argument("--workload", default="lib-session",
                        choices=("lib-session", "cli-families", "cli-small"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.run([sys.executable, *sys.argv], env=env).returncode

    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import tracing
    import worker

    tracers, events = [], []  # events: [traced pass or None, span or None, start]
    observe = tracing.Tracer.observe.__code__

    class Recording(tracing.Tracer):
        def __init__(self):
            super().__init__()
            tracers.append(self)

    def in_observe():
        frame = sys._getframe(2)
        while frame is not None and frame.f_code is not observe:
            frame = frame.f_back
        return frame is not None

    def perfbench_line():
        """The innermost perfbench line on the stack, where an uncovered collection started."""
        frame = sys._getframe(2)
        while frame is not None and Path(frame.f_code.co_filename).parent != tree / "perfbench":
            frame = frame.f_back
        return frame and f"perfbench/{Path(frame.f_code.co_filename).name}:{frame.f_lineno}"

    def hook(phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            on = [i for i, t in enumerate(tracers) if t.on]
            where = [None, None, time.perf_counter()]
            if on:
                t = tracers[on[-1]]
                span = t.spans[t.stack[-1]][0] if t.stack else None
                # observe moves its own time out of the open span; when that
                # span is a root, no span covers it.
                if span is not None and t.spans[t.stack[-1]][3] is None and in_observe():
                    span = OBSERVE
                where[:2] = on[-1], span or f"none, at {perfbench_line()}"
            events.append(where)
        else:
            events[-1][2] = time.perf_counter() - events[-1][2]

    worker.Tracer = Recording  # worker.repeat makes one per traced pass
    gc.callbacks.append(hook)
    try:
        with tempfile.TemporaryDirectory() as work:
            if args.workload == "lib-session":
                runner = worker.LibSession(args.seed, timed=False)
            else:
                runner = worker.CliInProcess(args.workload, args.seed, Path(work))
            res = worker.repeat(runner, args.seconds, traced=True)
    finally:
        gc.callbacks.remove(hook)

    covers = [p["root_s"] / p["wall_s"] for p in res["layers"]]
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s, tree {tree}")
    print(f"{len(covers)} traced passes; generation-2 collections by traced pass, "
          f"with the innermost open span (none: counted as uncovered)")
    for i, (p, cover) in enumerate(zip(res["layers"], covers)):
        flag = "  BELOW FLOOR" if cover < FLOOR else ""
        print(f"  pass {i + 1:3d}: coverage {cover:7.2%} ({p['root_s']:.4f} s of {p['wall_s']:.4f} s){flag}")
        for _, span, seconds in (e for e in events if e[0] == i):
            print(f"            gen-2 collection {seconds * 1000:7.1f} ms in span {span}")
    outside = [e[2] for e in events if e[0] is None]
    print(f"  outside traced passes: {len(outside)} gen-2 collections "
          f"({', '.join(f'{s * 1000:.1f}' for s in outside) or '-'} ms)")
    traced = [e for e in events if e[0] is not None]
    ms = [e[2] * 1000 for e in events] or [0]
    worst = covers.index(min(covers))
    print(f"summary: worst coverage {covers[worst]:.2%} (pass {worst + 1}), {sum(c < FLOOR for c in covers)} "
          f"below {FLOOR:.0%}; {len(traced)} gen-2 collections in traced passes, "
          f"{sum(e[1] == OBSERVE or e[1].startswith('none') for e in traced)} uncovered; "
          f"{len(events)} in all, {min(ms):.1f}-{max(ms):.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
