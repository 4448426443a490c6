"""Tabulate Gauss rules for a measure across rule orders.

For each k up to the requested maximum the script prints nodes, weights,
and the worst moment-reconstruction error over j <= 2k-1. The default
measure is the Legendre weight; pass a measure spec JSON (same schema as
the opgb CLI) to quadrate something else. A discrete spec caps the table
at its atom count. With --reproduce and a discrete spec it also runs the
k = atom-count rule, whose nodes and weights must come back as the atoms
themselves. An opgb error (say, a measure that is not quasi-definite)
prints one "error: ..." line to stderr and exits with the error's exit
code: 2 for a refusal by the mathematics, 1 otherwise.

    python scripts/quadrature_table.py --k-max 6
    python scripts/quadrature_table.py --spec measure.json --reproduce
"""

import argparse
import json
import sys

from opgb import biorth, gram, quad
from opgb.errors import OpgbError


def legendre_spec():
    return {"type": "classical", "family": "jacobi", "alpha": "0", "beta": "0"}


def print_rule(k, rule, err):
    nodes = ", ".join(f"{x:+.12f}" for x in rule.nodes)
    weights = ", ".join(f"{w:+.12f}" for w in rule.weights)
    print(f"k = {k}  ({rule.method})")
    print(f"  nodes   [{nodes}]")
    print(f"  weights [{weights}]")
    print(f"  max moment error (j <= {2 * k - 1}): {err:.3e}")


def main():
    try:
        tabulate()
    except OpgbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)


def tabulate():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", default=None, help="measure spec JSON file")
    parser.add_argument("--k-max", type=int, default=5)
    parser.add_argument("--reproduce", action="store_true",
                        help="for discrete measures, run the atom-reproducing rule")
    args = parser.parse_args()

    if args.spec:
        with open(args.spec) as fh:
            doc = json.load(fh)
    else:
        doc = legendre_spec()
    source = gram.parse_measure_spec(doc)
    k_max = args.k_max
    if isinstance(source, gram.DiscreteMeasure):
        # No k-point rule exists past the atom count: there H_k = 0.
        k_max = min(k_max, len(source.atoms))
    fam = biorth.build_families(gram.gram_matrix(source, k_max + 1), allow_final_zero=True)
    ms = gram.moments(source, 2 * k_max - 1)

    for k in range(1, k_max + 1):
        rule = quad.gauss_rule(fam, k)
        print_rule(k, rule, quad.exactness_check(rule, ms))

    if args.reproduce:
        if not isinstance(source, gram.DiscreteMeasure) or source.max_derivative_order() > 0:
            raise SystemExit("--reproduce needs a discrete measure spec of plain point masses")
        k = len(source.atoms)
        fam_full = biorth.build_families(
            gram.gram_matrix(source, k + 1), allow_final_zero=True
        )
        rule = quad.gauss_rule(fam_full, k)
        print(f"atom reproduction, k = {k}")
        for x, w, atom in zip(rule.nodes, rule.weights, source.atoms):
            print(
                f"  node {x:+.12f} vs atom {float(atom.q):+.12f}   "
                f"weight {w:+.12f} vs mass {float(atom.w):+.12f}"
            )


if __name__ == "__main__":
    main()
