"""Walk a random discrete measure through the three spectral transformations.

For a seeded measure the script prints the squared norms H_n of the source
family, then applies a Christoffel multiplication, a Geronimus division
with a free mass, and their coprime composition, each time comparing the
explicit formula route against direct factorization of the perturbed Gram
matrix. All arithmetic is exact; every table should end with "agree".

    python scripts/transform_gallery.py --seed 3 --atoms 7
"""

import argparse
import random
from fractions import Fraction

from opgb import biorth, gram, transforms
from opgb.errors import NotQuasiDefinite, ZeroAtRoot, ZeroDenominator
from opgb.poly import poly_trim
from opgb.scalars import format_scalar
from opgb.transforms import GeronimusFreeData, PolyPerturbation


def draw_measure(rng, n_atoms):
    positions = set()
    while len(positions) < n_atoms:
        positions.add(Fraction(rng.randint(-16, 16), 2))
    pairs = []
    for q in sorted(positions):
        w = 0
        while w == 0:
            w = rng.randint(-3, 4)
        pairs.append((q, w))
    return gram.DiscreteMeasure.from_pairs(pairs)


def draw_point(rng, banned):
    while True:
        r = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
        if r not in banned:
            return r


def show_family(label, hs):
    print(f"  {label}: H = [{', '.join(format_scalar(h) for h in hs)}]")


def verdict(pairs):
    ok = all(
        poly_trim(list(a)) == poly_trim(list(b)) if isinstance(a, list) else a == b
        for a, b in pairs
    )
    print("  formula vs factorization:", "agree" if ok else "DISAGREE")
    return ok


def christoffel_block(f, measure, size, a):
    print(f"Christoffel, W = x - ({format_scalar(a)})")
    ghat = transforms.christoffel_gram(gram.gram_matrix(measure, size), PolyPerturbation.simple(a))
    hat = biorth.build_families(ghat)
    show_family("factorized", hat.h)
    pairs = []
    for n in range(hat.size):
        p1, p2, h = transforms.christoffel_polys_deg1(f, a, n)
        pairs += [(p1, hat.poly1(n)), (p2, hat.poly2(n)), (h, hat.h[n])]
    return verdict(pairs)


def geronimus_block(f, measure, size, q, xi):
    print(f"Geronimus, W = x - ({format_scalar(q)}), xi = {format_scalar(xi)}")
    col = transforms.geronimus_first_column(measure, q, xi, size)
    check = biorth.build_families(
        transforms.geronimus_gram(gram.gram_matrix(measure, size), q, col)
    )
    show_family("factorized", check.h)
    c1 = biorth.second_kind_values(f, measure, q)
    xp = transforms.xi_pairing_single_mass(f, q, xi)
    pairs = []
    for n in range(check.size):
        p1, h, p2 = transforms.geronimus_polys_deg1(f, c1, xp, n)
        pairs += [(p1, check.poly1(n)), (p2, check.poly2(n)), (h, check.h[n])]
    omega = transforms.geronimus_connector(f, check)
    subdiag = [format_scalar(omega.rows[i][i - 1]) for i in range(1, check.size)]
    print(f"  connector subdiagonal: [{', '.join(subdiag)}]")
    return verdict(pairs)


def linear_spectral_block(f, measure, size, r, q, xi):
    print(
        f"linear spectral, W_C = x - ({format_scalar(r)}), "
        f"W_G = x - ({format_scalar(q)}), xi = {format_scalar(xi)}"
    )
    wc = PolyPerturbation.simple(r)
    wg = PolyPerturbation.simple(q)
    free = GeronimusFreeData.for_measure(measure, wg, [xi])
    res = transforms.linear_spectral(f, wc, wg, free, size)
    show_family("composed", res.family.h)
    direct = transforms.multiply_measure(transforms.geronimus_measure(measure, q, xi), wc)
    g = gram.gram_matrix(direct, size)
    ok = res.family.gram.rows == g.rows
    print("  moment route vs measure route:", "agree" if ok else "DISAGREE")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--atoms", type=int, default=7)
    parser.add_argument("--size", type=int, default=4, help="family truncation size")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    for attempt in range(50):
        measure = draw_measure(rng, args.atoms)
        banned = set(a.q for a in measure.atoms)
        r = draw_point(rng, banned)
        q = draw_point(rng, banned | {r})
        xi = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        try:
            f = biorth.build_families(gram.gram_matrix(measure, args.size + 1))
            atoms = ", ".join(
                f"({format_scalar(a.q)}, {format_scalar(a.w)})" for a in measure.atoms
            )
            print(f"measure: {atoms}")
            show_family("source", f.h)
            ok = christoffel_block(f, measure, args.size + 1, r)
            ok &= geronimus_block(f, measure, args.size + 1, q, xi)
            ok &= linear_spectral_block(f, measure, args.size, r, q, xi)
        except (NotQuasiDefinite, ZeroAtRoot, ZeroDenominator):
            continue
        raise SystemExit(0 if ok else 1)
    raise SystemExit("no admissible draw in 50 attempts; try another seed")


if __name__ == "__main__":
    main()
