"""Print a sha256 of every output of one perfbench pass, as one JSON object.

Keys are "<workload>/<op>". A cli-families or cli-small job is run in this
process through opgb.cli.main, and its digest covers the exit code, the
output bytes and any uncaught error. A lib-session op's digest is that of
the repr of its result. opgb and perfbench's inputs, worker and session
modules are imported from the given checkout, which is only read; working
files go to a temporary directory.

Run it on two checkouts to show that a change leaves every output as it
was. With --against it compares instead of printing: it lists the keys
whose digest differs from (or is missing in either of) OLD.json and exits 1
if there are any:

    python scripts/output_digests.py --tree ../parent --seed 1 > old.json
    python scripts/output_digests.py --tree . --seed 1 --against old.json
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, help="root of the checkout to run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", metavar="OLD.json",
                        help="compare with these digests instead of printing; exit 1 on a difference")
    args = parser.parse_args()
    old = json.loads(Path(args.against).read_text()) if args.against else None

    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import worker

    out = {}
    with tempfile.TemporaryDirectory() as work:
        # Relative working paths, so that no output names the temporary directory.
        os.chdir(work)
        for workload in ("cli-families", "cli-small"):
            Path(workload).mkdir()
            runner = worker.CliInProcess(workload, args.seed, Path(workload))
            for name, (code, text, error, _) in runner.run(None).items():
                out[f"{workload}/{name}"] = sha256(repr((code, text, error)))
        runner = worker.LibSession(args.seed, timed=False)
        for key, digest in runner.digests(runner.run(None)).items():
            out[f"lib-session/{key}"] = digest
    if old is None:
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0
    keys = out.keys() | old.keys()
    differ = sorted(k for k in keys if out.get(k) != old.get(k))
    for key in differ:
        print(key)
    print(f"{len(differ)} of {len(keys)} keys differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
