"""End-to-end CLI behavior: output documents, exit codes, plot data."""

import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import opgb
from opgb import biorth, errors, gram, quad, transforms
from opgb.cli import JobSpec, canonical_json, main, run
from opgb.numlin import Matrix, det
from opgb.poly import poly_eval
from opgb.scalars import format_scalar

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.OpgbError)
]

# Refusals by the mathematics: the only errors that exit 2.
REFUSALS = {
    "Refusal",
    "NotQuasiDefinite",
    "ZeroAtRoot",
    "SingularJetMatrix",
    "ZeroDenominator",
    "DegenerateDenominator",
    "NotCoprime",
    "PoleAtAtom",
    "NonPositive",
    "DegenerateRecurrence",
    "SingularBlock",
    "SingularTruncation",
}


def child_env():
    """Environment for a child interpreter that imports the same opgb as this process."""
    return dict(os.environ, PYTHONPATH=str(Path(opgb.__file__).resolve().parents[1]))


@pytest.fixture
def specs(tmp_path):
    """Write the measure spec files used across CLI tests; returns path dict."""
    files = {
        "hermite": {"type": "classical", "family": "hermite"},
        "legendre": {"type": "classical", "family": "jacobi", "alpha": "0", "beta": "0"},
        "laguerre_half": {"type": "classical", "family": "laguerre", "alpha": "1/2"},
        "jacobi_half": {"type": "classical", "family": "jacobi", "alpha": "1/2", "beta": "0"},
        "atoms3": {
            "type": "discrete",
            "atoms": [
                {"q": "-1", "w": "1", "d": 0},
                {"q": "0", "w": "1", "d": 0},
                {"q": "1", "w": "1", "d": 0},
            ],
        },
        "atoms6": {
            "type": "discrete",
            "atoms": [
                {"q": "-2", "w": "1"},
                {"q": "-1", "w": "2"},
                {"q": "0", "w": "1"},
                {"q": "1", "w": "3"},
                {"q": "2", "w": "1"},
                {"q": "3", "w": "2"},
            ],
        },
        "single": {"type": "discrete", "atoms": [{"q": "1", "w": "2"}]},
        "atoms2": {"type": "discrete", "atoms": [{"q": "-1", "w": "1"}, {"q": "2", "w": "3"}]},
        "signed": {
            "type": "discrete",
            "atoms": [{"q": "0", "w": "1"}, {"q": "1", "w": "-3"}, {"q": "2", "w": "1"}],
        },
        "bad_atoms": {"type": "discrete", "atoms": "oops"},
        "list_atoms": {"type": "discrete", "atoms": [[1, 2]]},
    }
    paths = {}
    for name, doc in files.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    paths["broken"] = str(broken)
    paths["missing"] = str(tmp_path / "nope.json")
    return paths


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestPolys:
    def test_hermite_document(self, capsys, specs):
        code, out = run_cli(capsys, ["polys", "--spec", specs["hermite"], "--n", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "1"
        assert doc["h"] == ["1", "1/2", "1/2"]
        assert doc["p1"][2] == ["-1/2", "0", "1"]
        assert doc["p2"][2] == ["-1/2", "0", "1"]
        assert doc["hankel"] is True
        assert doc["jacobi_band"] == {"a": ["0", "0"], "b": ["1/2", "1"]}
        assert doc["mass"] == pytest.approx(1.7724538509, abs=1e-9)

    def test_discrete_document(self, capsys, specs):
        code, out = run_cli(capsys, ["polys", "--spec", specs["atoms3"], "--n", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["h"] == ["3", "2", "2/3"]
        assert doc["p1"][2] == ["-2/3", "0", "1"]
        assert "mass" not in doc

    def test_round_trip_bytes(self, capsys, specs):
        _, out = run_cli(capsys, ["polys", "--spec", specs["atoms3"], "--n", "3"])
        assert canonical_json(json.loads(out)) == out

    def test_float_mode(self, capsys, specs):
        code, out = run_cli(
            capsys, ["polys", "--spec", specs["atoms3"], "--n", "3", "--mode", "float"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "float"
        assert doc["h"][0] == 3.0
        assert doc["h"][2] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_out_file(self, capsys, specs, tmp_path):
        target = tmp_path / "out.json"
        code, out = run_cli(
            capsys, ["polys", "--spec", specs["atoms3"], "--n", "2", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["h"] == ["3", "2"]


def dominant_table_spec():
    """A fixed 10 x 10 non-Hankel table, strictly diagonally dominant."""
    def entry(i, j):
        return Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i * j) % 4) + (60 + i if i == j else 0)

    return {"type": "bivariate", "entries": [[format_scalar(entry(i, j)) for j in range(10)]
                                             for i in range(10)]}


def rank3_table_spec():
    """A fixed 5 x 5 table A diag(2, -3, 5/2) B^T with unit lower 5 x 3 factors A, B:
    its leading minors of order 4 and 5 vanish."""
    a = [[1 if i == t else Fraction(i + 2 * t, 3) if i > t else 0 for t in range(3)]
         for i in range(5)]
    b = [[1 if i == t else Fraction(t - i, 2) if i > t else 0 for t in range(3)]
         for i in range(5)]
    d = [2, -3, Fraction(5, 2)]
    return {"type": "bivariate", "entries": [
        [format_scalar(sum(a[i][t] * d[t] * b[j][t] for t in range(3))) for j in range(5)]
        for i in range(5)]}


class TestPinnedTableBytes:
    """sha256 of whole non-Hankel documents: a byte that moves in the
    factorization route, its refusal or the writer shows here."""

    DIGESTS = {
        "dominant-10": "45f5b797aeef95307e470402705d3c161452938f9a5812dfc889c92a344c3c97",
        "rank3-refusal": "e54206ae032822bafd72e4035f6dccf3e6d1cbc62758db27933b98e63af45500",
    }

    @pytest.mark.parametrize("name, spec, n, code", [
        ("dominant-10", dominant_table_spec(), 10, 0),
        ("rank3-refusal", rank3_table_spec(), 5, 2),
    ], ids=["dominant-10", "rank3-refusal"])
    def test_document_bytes(self, capsys, tmp_path, name, spec, n, code):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(spec))
        got_code, out = run_cli(capsys, ["polys", "--spec", str(path), "--n", str(n)])
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[name]


class TestQuadrature:
    def test_legendre_two_point(self, capsys, specs):
        code, out = run_cli(capsys, ["quadrature", "--spec", specs["legendre"], "--k", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "eigh"
        assert doc["nodes"] == pytest.approx([-0.57735026919, 0.57735026919], abs=1e-9)
        assert doc["weights"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert doc["exactness"] < 1e-12

    @pytest.mark.parametrize("spec, k", [("laguerre_half", 12), ("jacobi_half", 21)])
    def test_rules_past_k12(self, capsys, specs, spec, k):
        code, out = run_cli(capsys, ["quadrature", "--spec", specs[spec], "--k", str(k)])
        assert code == 0, out
        doc = json.loads(out)
        assert doc["method"] == "eigh"
        assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-12)

    def test_atoms_at_1e200(self):
        # b_k near 10^400 has no float, but the scaled band does: the rule answers. Its
        # absolute moment error near 10^984 does not, and reads inf.
        atoms = [{"q": str(q * 10**200), "w": "1"} for q in (-2, -1, 1, 2, 3)]
        doc, code = run(JobSpec("quadrature", {"type": "discrete", "atoms": atoms}, k=3))
        assert code == 0, doc
        assert sum(doc["weights"]) == pytest.approx(5, rel=1e-14)
        assert doc["exactness"] == math.inf

    def test_mass_past_float_range_exits_1(self):
        atoms = [{"q": "1", "w": str(10**400)}, {"q": "2", "w": str(10**400)}]
        doc, code = run(JobSpec("quadrature", {"type": "discrete", "atoms": atoms}, k=1))
        assert (code, doc["error"]) == (1, "OverflowError")

    def test_hankel_table(self):
        # The standard normal's moments as a table: the rule's moments come from the block it
        # factors, so an entry past that block (the 1) need not continue the sequence.
        for entry in (0, 1):
            rows = [[1, 0, 1, 0], [0, 1, 0, 3], [1, 0, 3, entry], [0, 3, 0, 15]]
            spec = {"type": "bivariate", "entries": [[str(v) for v in row] for row in rows]}
            doc, code = run(JobSpec("quadrature", spec, k=2))
            assert code == 0, doc
            assert doc["nodes"] == pytest.approx([-1.0, 1.0], abs=1e-15)
            assert doc["weights"] == pytest.approx([0.5, 0.5], abs=1e-15)
            assert doc["exactness"] == 0.0

    def test_signed_measure_rejected(self, capsys, specs):
        code, out = run_cli(capsys, ["quadrature", "--spec", specs["signed"], "--k", "2"])
        assert code == 2
        assert json.loads(out)["error"] == "NonPositive"


class TestTransform:
    def test_christoffel(self, capsys, specs):
        code, out = run_cli(
            capsys,
            ["transform", "--spec", specs["atoms6"], "--transform", "christoffel",
             "--root", "7/2", "--n", "2"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matches_factorization"] is True
        assert doc["roots"] == ["7/2"]
        assert len(doc["h"]) == 2

    def test_geronimus(self, capsys, specs):
        code, out = run_cli(
            capsys,
            ["transform", "--spec", specs["atoms6"], "--transform", "geronimus",
             "--g-root", "9/2", "--xi", "1/3", "--n", "3"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matches_factorization"] is True
        assert doc["root"] == "9/2"
        assert doc["xi"] == "1/3"

    def test_linear_spectral(self, capsys, specs):
        code, out = run_cli(
            capsys,
            ["transform", "--spec", specs["atoms6"], "--transform", "linear-spectral",
             "--root", "7/2", "--g-root", "9/2", "--xi", "1/3", "--n", "3"],
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["h"]) == 3
        assert len(doc["moments"]) == 5
        assert doc["hankel"] is True

    def test_missing_roots(self, capsys, specs):
        code, out = run_cli(
            capsys, ["transform", "--spec", specs["atoms6"], "--transform", "christoffel"]
        )
        assert code == 1


class TestClassicalCheck:
    def test_hermite(self, capsys, specs):
        code, out = run_cli(capsys, ["classical-check", "--spec", specs["hermite"], "--n", "6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["eigenvalues"] == ["0", "-2", "-4", "-6", "-8", "-10", "-12"]
        assert {c["name"] for c in doc["checks"]} == {
            "subdiagonal_closed_form",
            "operator_diagonalization",
            "norm_ratio_parameter_shift",
        }

    def test_rejects_discrete(self, capsys, specs):
        code, out = run_cli(capsys, ["classical-check", "--spec", specs["atoms3"]])
        assert code == 1


class TestIdentities:
    def test_passes(self, capsys, specs):
        code, out = run_cli(
            capsys, ["identities", "--spec", specs["atoms6"], "--n", "5", "--seed", "7"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["residual"] <= 1e-9 for c in doc["checks"])

    def test_seed_determinism(self, capsys, specs):
        _, first = run_cli(
            capsys, ["identities", "--spec", specs["atoms6"], "--n", "4", "--seed", "3"]
        )
        _, second = run_cli(
            capsys, ["identities", "--spec", specs["atoms6"], "--n", "4", "--seed", "3"]
        )
        assert first == second

    def test_moment_identity_checks_every_certified_index(self, capsys, specs, monkeypatch):
        # moment_from_spectral certifies m_j for j <= 2n - 3, past the n moments of the first row.
        exact = biorth.moment_from_spectral
        monkeypatch.setattr(biorth, "moment_from_spectral", lambda f, j: exact(f, j) + (j == f.size))
        code, out = run_cli(
            capsys, ["identities", "--spec", specs["atoms6"], "--n", "5", "--seed", "7"]
        )
        checks = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
        assert code == 0 and checks["moment_identity"] is False


class TestFloatSelfChecks:
    """Float-mode self-checks pass on the true families and fail on perturbed ones."""

    WIDE = {"type": "discrete", "atoms": [
        {"q": q, "w": w} for q, w in [("-14", "8"), ("-21/2", "9/2"), ("-23/6", "2/3"), ("-9/5", "9/4"),
                                      ("-3/4", "1"), ("3/2", "9/2"), ("22/3", "7/3"), ("19", "3/4")]]}

    @staticmethod
    def perturb(fam, row):
        """fam with the largest coefficient of S1 row `row` moved by 1e-6 relative."""
        rows = [list(r) for r in fam.s1.rows]
        j = max(range(row + 1), key=lambda j: abs(rows[row][j]))
        rows[row][j] *= 1 + 1e-6
        return dataclasses.replace(fam, s1=Matrix(rows))

    def perturb_call(self, monkeypatch, call):
        """Perturb the family that the call-th build_families call returns."""
        build, count = biorth.build_families, [0]

        def wrapped(*args, **kwargs):
            count[0] += 1
            fam = build(*args, **kwargs)
            return self.perturb(fam, 3) if count[0] == call else fam

        monkeypatch.setattr(biorth, "build_families", wrapped)

    def identities(self):
        return run(JobSpec("identities", self.WIDE, n=5, mode="float", seed=11))

    def christoffel(self):
        return run(JobSpec("transform", self.WIDE, n=4, mode="float", roots=("-4", "9/2")))

    def test_float_identities_pass(self):
        doc, code = self.identities()
        assert code == 0
        assert doc["checks"][0]["name"] == "biorthogonality"
        assert doc["passed"] is True

    def test_float_christoffel_matches(self):
        doc, code = self.christoffel()
        assert code == 0
        assert doc["matches_factorization"] is True

    def test_perturbed_identities_fail(self, monkeypatch):
        self.perturb_call(monkeypatch, 1)
        doc, code = self.identities()
        assert code == 0
        assert doc["checks"][0]["passed"] is False
        assert doc["passed"] is False

    def test_perturbed_christoffel_fails(self, monkeypatch):
        # The second family is the factorization of the transformed Gram matrix.
        self.perturb_call(monkeypatch, 2)
        doc, code = self.christoffel()
        assert code == 0
        assert doc["matches_factorization"] is False

    def geronimus(self):
        return run(JobSpec("transform", self.WIDE, n=4, mode="float", transform="geronimus",
                           g_roots=("-5",), xis=("1/4",)))

    def test_float_geronimus_matches(self):
        doc, code = self.geronimus()
        assert code == 0
        assert doc["matches_factorization"] is True

    @pytest.mark.parametrize("part", ["s1", "h"])
    def test_moved_geronimus_fails(self, monkeypatch, part):
        # linear_spectral refactorizes the Geronimus moments; one coefficient of
        # that family's S1 moves by 5.0, or its H_2 by 1e-6 relative.
        build = transforms.build_families

        def wrapped(*args, **kwargs):
            fam = build(*args, **kwargs)
            if part == "h":
                return dataclasses.replace(fam, h=fam.h[:2] + (fam.h[2] * (1 + 1e-6),) + fam.h[3:])
            rows = [list(r) for r in fam.s1.rows]
            rows[2][0] += 5.0
            return dataclasses.replace(fam, s1=Matrix(rows))

        monkeypatch.setattr(transforms, "build_families", wrapped)
        doc, code = self.geronimus()
        assert code == 0
        assert doc["matches_factorization"] is False


    @pytest.mark.parametrize("g_roots, xis", [(("-2",), ("1/4",)), (("-2", "9/2"), ("1/4",))])
    def test_float_geronimus_document_has_no_exact_strings(self, g_roots, xis):
        doc, code = run(JobSpec("transform", self.WIDE, n=4, mode="float", transform="geronimus",
                                g_roots=g_roots, xis=xis))
        assert code == 0
        assert all(isinstance(v, float) for v in doc["h"])
        assert all(isinstance(c, float) for p in doc["p1"] + doc["p2"] for c in p[:-1])


HERMITE = {"type": "classical", "family": "hermite"}
TABLE = {"type": "bivariate", "entries": [["2", "1", "0", "1/2"], ["1/3", "3", "1", "0"],
                                          ["0", "-1", "4", "1"], ["1", "0", "1/5", "5"]]}


def rounded(doc):
    """doc with every scalar string s replaced by float(Fraction(s))."""
    if isinstance(doc, dict):
        return {k: rounded(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [rounded(v) for v in doc]
    if isinstance(doc, str):
        try:
            return float(Fraction(doc))
        except ValueError:
            return doc
    return doc


def assert_float_rounds_exact(job):
    """The float document is the exact one with each scalar rounded; the header aside."""
    exact, code = run(dataclasses.replace(job, mode="exact"))
    approx, float_code = run(dataclasses.replace(job, mode="float"))
    assert float_code == code
    header = ("schema", "command", "mode", "measure")
    exact, approx = ({k: v for k, v in doc.items() if k not in header} for doc in (exact, approx))
    assert canonical_json(approx) == canonical_json(rounded(exact))
    return code


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


class TestFloatRoundsExact:
    """--mode float computes exactly and rounds only what it writes."""

    @given(
        atoms=st.lists(st.tuples(rationals, rationals.filter(bool)), min_size=4, max_size=6,
                       unique_by=lambda a: a[0]),
        root=rationals, g_root=rationals, xi=rationals,
    )
    def test_random_atoms(self, atoms, root, g_root, xi):
        spec = {"type": "discrete", "atoms": [{"q": str(q), "w": str(w)} for q, w in atoms]}
        roots = dict(roots=(str(root),), g_roots=(str(g_root),), xis=(str(xi),))
        for job in (
            JobSpec("polys", spec, n=4),
            JobSpec("identities", spec, n=4, seed=5),
            JobSpec("transform", spec, n=2, roots=(str(root),)),
            JobSpec("transform", spec, n=2, transform="geronimus", **roots),
            JobSpec("transform", spec, n=2, transform="linear-spectral", **roots),
        ):
            assert_float_rounds_exact(job)

    @pytest.mark.parametrize("job", [
        JobSpec("polys", HERMITE, n=6),
        JobSpec("transform", HERMITE, n=3, roots=("3/2",)),
        JobSpec("transform", HERMITE, n=3, transform="geronimus", g_roots=("3",), xis=("1/4",),
                c0s=("1/2",)),
        JobSpec("transform", HERMITE, n=3, transform="linear-spectral", roots=("-1",),
                g_roots=("3",), c0s=("0.3",)),
        JobSpec("identities", HERMITE, n=5, seed=2),
        JobSpec("classical-check", HERMITE, n=5),
        JobSpec("polys", TABLE, n=4),
        JobSpec("transform", TABLE, n=2, roots=("2",)),
        JobSpec("identities", TABLE, n=4, seed=3),
        JobSpec("polys", {"type": "classical", "family": "jacobi"}, n=20),
        JobSpec("polys", {"type": "classical", "family": "laguerre"}, n=20),
    ], ids=lambda job: "-".join((job.spec.get("family", job.spec["type"]),
                              job.transform if job.command == "transform" else job.command, str(job.n))))
    def test_fixed_cases(self, job):
        assert assert_float_rounds_exact(job) == 0

    @pytest.mark.parametrize("spec_numbers, spec_strings", [
        ({"type": "discrete", "atoms": [{"q": 0.25, "w": 1}, {"q": -0.5, "w": 0.75}, {"q": 2, "w": 3}]},
         {"type": "discrete", "atoms": [{"q": "1/4", "w": "1"}, {"q": "-1/2", "w": "3/4"},
                                        {"q": "2", "w": "3"}]}),
        ({"type": "classical", "family": "jacobi", "alpha": 0.5, "beta": 0},
         {"type": "classical", "family": "jacobi", "alpha": "1/2", "beta": "0"}),
    ], ids=["discrete", "jacobi"])
    def test_json_numbers_parse_exactly(self, spec_numbers, spec_strings):
        docs = [run(JobSpec("polys", spec, n=3))[0] for spec in (spec_numbers, spec_strings)]
        for doc in docs:
            doc.pop("measure")
        assert canonical_json(docs[0]) == canonical_json(docs[1])

    def test_exact_continuous_geronimus(self, capsys, specs):
        code, out = run_cli(
            capsys,
            ["transform", "--spec", specs["hermite"], "--transform", "geronimus",
             "--g-root", "3", "--c0", "1/2", "--n", "3"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["h"][0] == "-1/2"
        assert all(isinstance(c, str) for p in doc["p1"] + doc["p2"] + [doc["h"]] for c in p)

    def test_float_overflow_is_an_error_document(self):
        doc, code = run(JobSpec("polys", {"type": "classical", "family": "laguerre"}, n=100,
                                mode="float"))
        assert (code, doc["error"]) == (1, "OverflowError")
        assert set(doc) == {"schema", "error", "message"}


class TestNonHankelTransforms:
    EXTRAS = pytest.mark.parametrize("extra", [
        dict(transform="geronimus", g_roots=("7",), xis=("1",), c0s=("0.5",)),
        dict(transform="geronimus", g_roots=("7", "8"), c0s=("0.5", "1")),
        dict(transform="linear-spectral", roots=("2",), g_roots=("7",), c0s=("0.5",)),
    ], ids=["geronimus-one-root", "geronimus-two-roots", "linear-spectral"])

    @EXTRAS
    def test_refused_as_not_hankel(self, extra):
        doc, code = run(JobSpec("transform", TABLE, n=2, **extra))
        assert (code, doc["error"]) == (1, "NotHankel")

    @EXTRAS
    def test_one_degree_is_refused_too(self, extra):
        # The source block at n = 1 is 1 x 1, and so Hankel: the whole table decides.
        doc, code = run(JobSpec("transform", TABLE, n=1, **extra))
        assert (code, doc["error"]) == (1, "NotHankel")


def discrete(atoms):
    return {"type": "discrete", "atoms": [{"q": str(q), "w": str(w)} for q, w in atoms]}


def oracle(measure, n):
    """The exact (h, p1, p2) of the size-n family of measure, or the index it refuses at."""
    try:
        fam = biorth.build_families(gram.gram_matrix(measure, n))
    except errors.NotQuasiDefinite as exc:
        return exc.index
    return ([format_scalar(h) for h in fam.h],
            [[format_scalar(c) for c in fam.poly1(k)] for k in range(n)],
            [[format_scalar(c) for c in fam.poly2(k)] for k in range(n)])


def assert_transform_is_oracle(job, transformed, source, size):
    """Run job and return its exit code. The source Gram of the given size (0 when the
    command factors no source) may refuse as not quasi-definite below its last index, and
    the document then refuses there. Otherwise the document is the measure-level oracle's
    size-n family of the transformed measure, or both refuse as not quasi-definite at the
    same printed index."""
    doc, code = run(job)
    # No formula divides by the source's last H, so only a zero before it is a refusal.
    src = oracle(source, size - 1) if size > 1 else None
    want = src if isinstance(src, int) else oracle(transformed, job.n)
    if isinstance(want, int):
        assert (code, doc["error"], doc["index"]) == (2, "NotQuasiDefinite", want)
        assert isinstance(src, int) or want < job.n
        return code
    assert code == 0, doc
    assert (doc["h"], doc["p1"], doc["p2"]) == want
    assert doc.get("matches_factorization", True) is True
    return code


def transform_oracles(atoms, roots, g_roots, xis, n):
    """{kind: (job, transformed measure, source measure, source Gram size the command
    factors)} for the Christoffel, Geronimus and linear spectral transforms. Only
    Christoffel and a single Geronimus root factor the source."""
    spec = discrete(atoms)
    m = gram.parse_measure_spec(spec)
    w = transforms.PolyPerturbation.simple(*roots)
    checked = m
    for q, xi in zip(g_roots, xis, strict=True):
        checked = transforms.geronimus_measure(checked, q, xi)
    g = dict(g_roots=tuple(map(str, g_roots)), xis=tuple(map(str, xis)))
    c = dict(roots=tuple(map(str, roots)))
    return {
        "christoffel": (JobSpec("transform", spec, n=n, **c), transforms.multiply_measure(m, w),
                        m, n + len(roots)),
        "geronimus": (JobSpec("transform", spec, n=n, transform="geronimus", **g), checked, m,
                      n if len(g_roots) == 1 else 0),
        "linear-spectral": (JobSpec("transform", spec, n=n, transform="linear-spectral", **c, **g),
                            transforms.multiply_measure(checked, w), m, 0),
    }


class TestTransformOracle:
    """Each transform factors only what it prints: it equals the measure-level oracle."""

    ATOMS3 = [(-1, 1), (0, 1), (1, 1)]
    ATOMS6 = [(-2, 1), (-1, 2), (0, 1), (1, 3), (2, 1), (3, 2)]

    @pytest.mark.parametrize("atoms, roots, g_roots, xis, n, kind", [
        ([(-3, 3), (-1, 3), (2, 2)], [Fraction(3, 2)], [5], [1], 1, "christoffel"),
        (ATOMS6, [2], [Fraction(9, 2)], [Fraction(9016576, 64279215)], 2, "geronimus"),
        (ATOMS3, [2], [5], [1], 3, "geronimus"),
        (ATOMS3, [2], [5], [1], 3, "linear-spectral"),
        (ATOMS3, [2], [5], [1], 3, "christoffel"),
        (ATOMS3, [2], [5], [1], 4, "geronimus"),
        (ATOMS3, [2, 3], [5], [1], 4, "linear-spectral"),
        (ATOMS3, [2], [5, 7], [1, 2], 5, "geronimus"),
    ], ids=["christoffel", "geronimus-atoms6", "geronimus-atoms3", "linear-spectral-atoms3",
            "christoffel-rank-deficient-source", "geronimus-rank-deficient-source",
            "linear-spectral-two-roots-few-atoms", "geronimus-two-roots-few-atoms"])
    def test_no_refusal_past_the_printed_family(self, atoms, roots, g_roots, xis, n, kind):
        # Each of these refused NotQuasiDefinite at an index past the printed family, or
        # at the source's last index, which no formula divides by. The last two refused at
        # source index 3, where three atoms run out, though the transformed measure has
        # enough atoms: linear-spectral and multi-root Geronimus factor no source.
        case = transform_oracles(atoms, roots, g_roots, xis, n)[kind]
        assert assert_transform_is_oracle(*case) == 0

    @given(
        n=st.integers(1, 3),
        extra=st.integers(-1, 3),
        atoms=st.lists(st.tuples(rationals, rationals.filter(lambda w: w > 0)), min_size=6,
                       max_size=6, unique_by=lambda a: a[0]),
        roots=st.lists(rationals, min_size=1, max_size=2),
        g_root=rationals, xi=rationals,
        mean_root=st.booleans(), vanish=st.sampled_from([None, 0, 1, 2]),
    )
    def test_random_atoms(self, n, extra, atoms, roots, g_root, xi, mean_root, vanish):
        # Positive weights on n - 1 to n + 3 atoms: a source with n - 1 or n atoms loses
        # its last H, or an earlier one when the source Gram is larger than n + 1.
        atoms = atoms[: max(1, n + extra)]
        m = gram.parse_measure_spec(discrete(atoms))
        # Refusals: a root at the mean makes H-hat_0 vanish, and the Geronimus Gram
        # determinant of size vanish + 1 is linear in xi, so some xi makes it zero.
        if mean_root:
            roots = [Fraction(sum(w * q for q, w in atoms), sum(w for _, w in atoms))] + roots[1:]
        # The mean can be the Geronimus root too, which linear-spectral refuses as NotCoprime.
        assume(g_root not in {q for q, _ in atoms} | set(roots))
        if vanish is not None and vanish < n:
            d0, d1 = (det(gram.gram_matrix(transforms.geronimus_measure(m, g_root, x), vanish + 1))
                      for x in (0, 1))
            assume(d0 != d1)
            xi = Fraction(d0, d0 - d1)
        for case in transform_oracles(atoms, roots, [g_root], [xi], n).values():
            assert_transform_is_oracle(*case)


class TestHeader:
    @pytest.mark.parametrize("job", [
        JobSpec("polys", {"type": "classical", "family": "hermite"}, n=3),
        JobSpec("quadrature", {"type": "classical", "family": "hermite"}, k=2, mode="float"),
        JobSpec("transform", {"type": "classical", "family": "hermite"}, n=2, roots=("3",)),
        JobSpec("transform", {"type": "classical", "family": "hermite"}, n=2, transform="geronimus",
                g_roots=("3",), c0s=("0.5",)),
        JobSpec("classical-check", {"type": "classical", "family": "hermite"}, n=3),
        JobSpec("identities", {"type": "classical", "family": "hermite"}, n=3),
    ], ids=lambda job: f"{job.command}-{job.transform}")
    def test_every_document_has_the_header(self, job):
        doc, code = run(job)
        assert code == 0
        assert (doc["schema"], doc["command"], doc["mode"], doc["measure"]) == (
            "1", job.command, job.mode, job.spec)

    def test_error_document_keeps_its_keys(self):
        doc, code = run(JobSpec("polys", {"type": "discrete", "atoms": "oops"}))
        assert code == 1
        assert set(doc) == {"schema", "error", "message"}

    def test_wrong_c0_count_is_misuse(self):
        doc, code = run(JobSpec("transform", {"type": "classical", "family": "hermite"}, n=2,
                                transform="geronimus", g_roots=("3",)))
        assert (code, doc["error"]) == (1, "schema")
        assert "--c0" in doc["message"]

    def test_c0_with_atoms_is_misuse(self):
        # A discrete measure gives c0 from its atoms; a --c0 would be silently ignored.
        doc, code = run(JobSpec("transform", discrete([(-1, 1), (0, 2), (1, 1), (2, 3)]), n=2,
                                transform="geronimus", g_roots=("5",), c0s=("100",)))
        assert (code, doc["error"]) == (1, "schema")
        assert "--c0" in doc["message"]

    @pytest.mark.parametrize("options, message", [
        ({}, "transform needs at least one --root"),
        ({"transform": "linear-spectral", "roots": ("2",)}, "transform needs at least one --g-root"),
        ({"transform": "geronimus"}, "transform needs at least one --g-root"),
        ({"transform": "geronimus", "g_roots": ("5",), "xis": ("1", "2")},
         "more xi values than Geronimus roots"),
        ({"transform": "bogus", "g_roots": ("5",)}, "unknown transform 'bogus'"),
    ], ids=["no-root", "no-g-root", "geronimus-no-g-root", "extra-xi", "unknown-transform"])
    def test_transform_misuse_is_schema(self, options, message):
        doc, code = run(JobSpec("transform", discrete([(-1, 1), (0, 1), (1, 1)]), n=2, **options))
        assert (code, doc["error"], doc["message"]) == (1, "schema", message)

    @pytest.mark.parametrize("kind, options, stray", [
        ("christoffel", {"roots": ("2",), "g_roots": ("5",)}, "--g-root"),
        ("christoffel", {"roots": ("2",), "xis": ("1",)}, "--xi"),
        ("christoffel", {"roots": ("2",), "c0s": ("1",)}, "--c0"),
        ("geronimus", {"g_roots": ("5",), "xis": ("1",), "roots": ("7",)}, "--root"),
    ], ids=["christoffel-g-root", "christoffel-xi", "christoffel-c0", "geronimus-root"])
    def test_stray_transform_option_is_misuse(self, kind, options, stray):
        # An option of another transform used to be ignored: the document was the one without it.
        doc, code = run(JobSpec("transform", discrete([(-1, 1), (0, 1), (1, 1)]), n=2,
                                transform=kind, **options))
        assert (code, doc["error"]) == (1, "schema")
        assert doc["message"] == f"--transform {kind} takes no {stray}"


class TestPlotData:
    def test_hermite_grid(self, capsys, specs):
        code, out = run_cli(
            capsys,
            ["plot-data", "--spec", specs["hermite"], "--n", "2", "--range=-2:2",
             "--samples", "5"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,P0,P1,P2"
        assert len(lines) == 6
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(r) == 4 for r in rows)
        assert all(float(r[1]) == 1.0 for r in rows)
        mid = rows[2]
        assert float(mid[0]) == 0.0
        assert float(mid[3]) == pytest.approx(-0.5, abs=1e-14)

    def test_exact_mode_factors_the_exact_gram(self, capsys, specs):
        # A float Gram of Legendre refuses at index 17; the exact one does not.
        code, out = run_cli(capsys, ["plot-data", "--spec", specs["legendre"], "--n", "19"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert float(rows[-1][-1]) == pytest.approx(2.0 ** 19 * math.factorial(19) ** 2 / math.factorial(38))

    @pytest.mark.parametrize("spec, args", [
        ("legendre", ["--n", "19"]),
        ("hermite", ["--n", "6", "--range=-3:2.5", "--samples", "7"]),
        ("table", ["--n", "5", "--samples", "9"]),
    ])
    def test_values_are_the_rounded_exact_values(self, capsys, specs, tmp_path, spec, args):
        # Each value is float() of the exact P_k at the sample, read here by exact Horner on S.
        table = tmp_path / "table.json"
        table.write_text(json.dumps(dominant_table_spec()))
        path = specs.get(spec, str(table))
        code, out = run_cli(capsys, ["plot-data", "--spec", path, *args])
        assert code == 0
        header, *lines = out.strip().split("\n")
        n = int(args[1])
        source = gram.parse_measure_spec(json.loads(Path(path).read_text()))
        fam = biorth.build_families(gram.gram_matrix(source, n + 1))
        assert header == "x," + ",".join(f"P{k}" for k in range(n + 1))
        for line in lines:
            x, *values = line.split(",")
            want = [repr(float(poly_eval(fam.poly1(k), Fraction(float(x))))) for k in range(n + 1)]
            assert values == want

    def test_bad_range(self, capsys, specs):
        code, out = run_cli(
            capsys, ["plot-data", "--spec", specs["hermite"], "--range", "oops"]
        )
        assert code == 1
        assert json.loads(out)["error"] == "schema"

    def test_too_few_samples(self, capsys, specs):
        code, out = run_cli(capsys, ["plot-data", "--spec", specs["hermite"], "--samples", "1"])
        assert code == 1
        assert json.loads(out)["error"] == "ValueError"

    def test_refusal_names_index(self, capsys, specs):
        code, out = run_cli(capsys, ["plot-data", "--spec", specs["atoms2"], "--n", "3"])
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "NotQuasiDefinite"
        assert doc["index"] == 2
        _, polys = run_cli(capsys, ["polys", "--spec", specs["atoms2"], "--n", "3"])
        assert json.loads(polys)["index"] == doc["index"]


class TestNegativeValues:
    """A separated negative value reads the same as the joined --opt=value form."""

    @pytest.mark.parametrize(
        "spec, args",
        [
            ("atoms6", ["transform", "--transform", "christoffel", "--root", "-1/3", "--n", "2"]),
            ("atoms6", ["transform", "--transform", "geronimus", "--g-root", "-9/2",
                        "--xi", "1/3", "--n", "3"]),
            ("atoms6", ["transform", "--transform", "geronimus", "--g-root", "9/2",
                        "--xi", "-1/3", "--n", "3"]),
            ("hermite", ["transform", "--transform", "geronimus", "--g-root", "3",
                         "--c0", "-5e-1", "--n", "3"]),
            ("hermite", ["plot-data", "--n", "2", "--range", "-2:2", "--samples", "5"]),
            ("hermite", ["plot-data", "--n", "2", "--range", "-.5:0.5", "--samples", "3"]),
        ],
        ids=["root", "g-root", "xi", "c0", "range", "range-dot"],
    )
    def test_separated_equals_joined(self, capsys, specs, spec, args):
        i = next(i for i, a in enumerate(args) if a.startswith("-") and args[i + 1][0] == "-")
        joined = args[:i] + [f"{args[i]}={args[i + 1]}"] + args[i + 2:]
        code, out = run_cli(capsys, [args[0], "--spec", specs[spec], *args[1:]])
        want_code, want = run_cli(capsys, [joined[0], "--spec", specs[spec], *joined[1:]])
        assert (code, out) == (want_code, want)
        assert code == 0

    def test_values_reach_the_job(self, capsys, specs):
        code, out = run_cli(
            capsys,
            ["transform", "--spec", specs["atoms6"], "--transform", "geronimus",
             "--g-root", "-9/2", "--xi", "-1/3", "--n", "3"],
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["root"], doc["xi"]) == ("-9/2", "-1/3")

    def test_option_after_numeric_option_still_errors(self, capsys, specs):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--spec", specs["atoms6"], "--root", "--n", "2"])
        assert exc.value.code == 1


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ["--ro", "-1/3"],
            ["--root=1", "--mode", "bogus"],
            ["--root=1", "--bogus", "1"],
        ],
        ids=["abbreviated-option", "bad-mode", "unknown-option"],
    )
    def test_misuse_exits_1(self, capsys, specs, args):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--spec", specs["atoms6"], *args, "--n", "2"])
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_error_class_exit_code(self, cls):
        assert REFUSALS <= {c.__name__ for c in ERROR_CLASSES}
        assert cls.exit_code == (2 if cls.__name__ in REFUSALS else 1)

    def test_internal_error_is_a_document(self, capsys, specs, monkeypatch):
        def fail(*args, **kwargs):
            raise errors.OpgbError("x")

        monkeypatch.setattr(quad, "gauss_rule", fail)
        code = main(["quadrature", "--spec", specs["legendre"], "--k", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out) == {"schema": "1", "error": "OpgbError", "message": "x"}
        assert captured.err == ""

    def test_malformed_atoms(self, capsys, specs):
        code, out = run_cli(capsys, ["polys", "--spec", specs["bad_atoms"]])
        assert code == 1
        assert json.loads(out)["error"] == "schema"

    def test_list_form_atoms(self, capsys, specs):
        code, out = run_cli(capsys, ["polys", "--spec", specs["list_atoms"]])
        assert code == 1
        assert json.loads(out)["error"] == "schema"

    def test_missing_file(self, capsys, specs):
        code, out = run_cli(capsys, ["polys", "--spec", specs["missing"]])
        assert code == 1
        assert json.loads(out)["error"] == "schema"

    def test_broken_json(self, capsys, specs):
        code, out = run_cli(capsys, ["polys", "--spec", specs["broken"]])
        assert code == 1
        assert json.loads(out)["error"] == "schema"

    @pytest.mark.parametrize("spec", [
        {"type": "discrete", "atoms": [{"q": "-1", "w": True}, {"q": "1", "w": "2"}]},
        {"type": "discrete", "atoms": [{"q": "-1", "w": "1", "d": True}, {"q": "1", "w": "2"}]},
        {"type": "classical", "family": "jacobi", "alpha": True, "beta": "0"},
        {"type": "bivariate", "entries": [[False, "1"], ["1", "2"]]},
    ], ids=["weight", "order", "alpha", "entry"])
    def test_boolean_is_not_a_number(self, spec):
        doc, code = run(JobSpec("polys", spec, n=2))
        assert (code, doc["error"]) == (1, "schema")

    def test_not_quasi_definite(self, capsys, specs):
        code, out = run_cli(capsys, ["polys", "--spec", specs["single"], "--n", "2"])
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "NotQuasiDefinite"
        assert doc["index"] == 1


class TestEntryPoint:
    def test_installed_script(self, specs):
        # Run the [project.scripts] target the way a generated launcher does,
        # through this interpreter, so no install is needed.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["opgb"]
        module, attr = target.split(":")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; from {module} import {attr}; sys.exit({attr}())",
             "polys", "--spec", specs["atoms3"], "--n", "2"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["h"] == ["3", "2"]

    @pytest.mark.skipif(
        shutil.which("opgb") is None,
        reason="opgb console script not on PATH (package not installed)",
    )
    def test_console_launcher(self, specs):
        proc = subprocess.run(
            ["opgb", "polys", "--spec", specs["atoms3"], "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["h"] == ["3", "2"]

    def test_module_invocation(self, specs):
        proc = subprocess.run(
            [sys.executable, "-m", "opgb.cli", "quadrature", "--spec", specs["atoms3"],
             "--k", "1"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["nodes"] == [pytest.approx(0.0, abs=1e-14)]
        assert doc["weights"] == [pytest.approx(3.0, abs=1e-14)]
