"""The benchmark's names still resolve in opgb.

perfbench/tracing.py wraps the functions its LAYERS table lists, and
perfbench/session.py calls linear_spectral with a family. A change that
deletes or renames one of them breaks the benchmark, so these tests name
the break where the change is made.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from opgb import transforms

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYER_NAMES = [(layer, modname, fname)
               for layer, (modname, fnames) in load_layers().items() for fname in fnames]


@pytest.mark.parametrize("layer, modname, fname", LAYER_NAMES,
                         ids=[f"{modname}.{fname}" for _, modname, fname in LAYER_NAMES])
def test_layer_name_resolves(layer, modname, fname):
    assert callable(getattr(importlib.import_module(modname), fname, None)), layer


def test_linear_spectral_takes_a_family():
    assert list(inspect.signature(transforms.linear_spectral).parameters) == [
        "f", "w_c", "w_g", "free", "n"]
