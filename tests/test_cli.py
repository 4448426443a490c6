"""End-to-end CLI behavior: output documents, exit codes, plot data."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import opgb
from opgb import biorth, errors, quad
from opgb.cli import JobSpec, canonical_json, main, run
from opgb.numlin import Matrix

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


class TestFloatSelfChecks:
    """Float residuals are judged against the size of their operands."""

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
        # The second family is the factorization of the Geronimus Gram matrix;
        # one coefficient of its S1 moves by 5.0, or H_2 by 1e-6 relative.
        build, count = biorth.build_families, [0]

        def wrapped(*args, **kwargs):
            count[0] += 1
            fam = build(*args, **kwargs)
            if count[0] != 2:
                return fam
            if part == "h":
                return dataclasses.replace(fam, h=fam.h[:2] + (fam.h[2] * (1 + 1e-6),) + fam.h[3:])
            rows = [list(r) for r in fam.s1.rows]
            rows[2][0] += 5.0
            return dataclasses.replace(fam, s1=Matrix(rows))

        monkeypatch.setattr(biorth, "build_families", wrapped)
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
        assert (code, doc["error"]) == (1, "ValueError")
        assert "--c0" in doc["message"]


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
