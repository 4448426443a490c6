"""Tests of the benchmark itself: python3 -m pytest perfbench

They check that inputs follow the seed, that the references agree with
hand-computed values, that the checks reject a wrong output, and that a
smoke run (--seconds 0, one pass) prints a well-formed, correct result.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as R  # noqa: E402


def run_bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=600)


def test_inputs_follow_the_seed():
    assert inputs.cli_small(3) == inputs.cli_small(3)
    assert inputs.lib_session(3) == inputs.lib_session(3)
    assert inputs.cli_small(3)[0]["atoms8"] != inputs.cli_small(4)[0]["atoms8"]


def test_denominators_do_not_depend_on_the_seed():
    def dens(seed):
        return sorted(Fraction(a["q"]).denominator for a in inputs.cli_families(seed)[0]["atoms40"]["atoms"])

    assert dens(1) == dens(2)


def test_references():
    assert R.classical_norms("hermite", 0, 0, 4) == [1, Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)]
    assert R.classical_norms("jacobi", 0, 0, 2)[1] == Fraction(1, 3)
    assert R.classical_moments("jacobi", 0, 0, 4) == [1, 0, Fraction(1, 3), 0, Fraction(1, 5)]
    assert R.classical_moments("laguerre", 0, 0, 3) == [1, 1, 2, 6]
    assert R.real_root_count([Fraction(-2), 0, 1]) == 2
    assert R.real_root_count([Fraction(2), 0, 1]) == 0
    # mu = delta_0 + delta_1: <mu, x / (3 - x)> = 1/2
    assert R.cauchy([(Fraction(0), 1, 0), (Fraction(1), 1, 0)], [0, 1], 3) == Fraction(1, 2)


def test_checks_reject_a_wrong_family():
    specs, jobs = inputs.cli_small(1)
    job = next(j for j in jobs if j.name == "atoms-polys")
    from opgb.cli import JobSpec, canonical_json, run

    payload, code = run(JobSpec("polys", specs["atoms8"], n=6))
    ctx = {"specs": specs, "jobs": jobs, "seed": 1, "outputs": {}}
    assert code == 0 and checks.check_output(job, canonical_json(payload), ctx) is None
    payload["h"][2] = R.fmt(Fraction(payload["h"][2]) + 1)
    assert checks.check_output(job, canonical_json(payload), ctx) is not None


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path,
                         timeout=180)
    assert res.returncode != 0 and res.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(trace):
    res = run_bench("--workload", "cli-small", "--seed", "2", "--seconds", "0", "--trace", trace)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
