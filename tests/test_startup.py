"""A cold process loads only the code its command runs.

Each check runs a child `python -S` (no site, so no .pth file can import a
module first) and reads sys.modules: `import opgb` loads no submodule, and
a polys job loads neither quad nor transforms, nor dataclasses, inspect or
random. The public names stay those the package has always exported.
"""

import importlib
import json

import pytest

import opgb
from conftest import run_child

# Name -> defining module, as the package has always exported them.
PUBLIC = {
    "biorth": [
        "BiorthFamilies", "SecondKindValues", "SpectralMatrix", "abc_kernel", "build_families",
        "cd_kernel", "eval_poly", "family_from_measure", "heine_oracle", "mixed_cd_kernel",
        "second_kind_values", "spectral_matrix", "three_term_coeffs"],
    "classical": ["PearsonData", "classical_eigenvalue", "classical_subdiagonal",
                  "diff_operator_matrix", "pearson_data"],
    "errors": [
        "DegenerateDenominator", "DegenerateRecurrence", "InsufficientTruncation", "NonPositive",
        "NotCoprime", "NotHankel", "NotQuasiDefinite", "OpgbError", "PoleAtAtom", "Refusal",
        "SingularBlock", "SingularJetMatrix", "SingularTruncation", "UnsupportedMeasure",
        "ZeroAtRoot", "ZeroDenominator"],
    "gram": ["Atom", "BivariateTable", "ClassicalWeight", "DiscreteMeasure", "cauchy_moments",
             "gram_matrix", "moments_classical", "moments_discrete", "parse_measure_spec"],
    "numlin": ["Matrix", "char_poly", "ldu_factorize", "schur_complement"],
    "quad": ["QuadratureRule", "exactness_check", "gauss_rule"],
    "transforms": [
        "GeronimusFreeData", "PolyPerturbation", "christoffel_gram", "christoffel_polys_deg1",
        "christoffel_polys_general", "geronimus_gram", "geronimus_polys_deg1", "jet",
        "linear_spectral", "markov_transform_check"],
}


def loaded_after(code):
    """The sorted sys.modules names of a fresh `python -S` process after it runs code."""
    proc = run_child(["-S", "-c", f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert [m for m in loaded_after("import opgb") if m.startswith("opgb.")] == []


def run_command(tmp_path, *argv):
    """Modules loaded by a fresh process that imports opgb.cli and runs one command on Hermite."""
    spec = tmp_path / "hermite.json"
    spec.write_text('{"type": "classical", "family": "hermite"}')
    args = [*argv, "--spec", str(spec), "--out", str(tmp_path / "out.json")]
    return loaded_after(f"import opgb.cli\nassert opgb.cli.main({args!r}) == 0")


def test_polys_loads_only_what_it_runs(tmp_path):
    modules = run_command(tmp_path, "polys", "--n", "5")
    assert json.loads((tmp_path / "out.json").read_text())["n"] == 5
    assert "opgb.biorth" in modules
    assert not {"opgb.quad", "opgb.transforms", "dataclasses", "inspect", "random"} & set(modules)


@pytest.mark.parametrize("argv, module", [
    (["quadrature", "--k", "3"], "opgb.quad"),
    (["transform", "--root", "2"], "opgb.transforms"),
])
def test_other_commands_load_their_module(tmp_path, argv, module):
    assert module in run_command(tmp_path, *argv)


def test_public_names_unchanged():
    assert sorted(opgb.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    assert set(opgb.__all__) <= set(dir(opgb))


@pytest.mark.parametrize("module, name", [(m, name) for m, names in PUBLIC.items() for name in names])
def test_name_is_the_defining_object(module, name):
    assert getattr(opgb, name) is getattr(importlib.import_module(f"opgb.{module}"), name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        opgb.nonesuch  # noqa: B018
