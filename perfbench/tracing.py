"""Spans around opgb's public functions, installed from outside the package.

Each listed function is wrapped where it is bound: in the namespace of every
opgb module (``from .numlin import ...`` rebinds the name there), and
Matrix.__matmul__ on the class. A span records layer name, start, end and
parent in memory; self time is a span's duration minus the time its child
spans cover.
"""

import importlib
import sys
import time
from fractions import Fraction

# Layer name -> (module, function names). Names must exist at the seed commit.
LAYERS = {
    "numlin.ldu_factorize": ("opgb.numlin", ["ldu_factorize"]),
    "numlin.unit_lower_inverse": ("opgb.numlin", ["unit_lower_inverse"]),
    "numlin.char_poly": ("opgb.numlin", ["char_poly"]),
    "numlin.solve": ("opgb.numlin", ["solve", "solve_vector"]),
    "biorth.build_families": ("opgb.biorth", ["build_families"]),
    "biorth.spectral_matrix": ("opgb.biorth", ["spectral_matrix"]),
    "biorth.moment_from_spectral": ("opgb.biorth", ["moment_from_spectral"]),
    "biorth.kernels": ("opgb.biorth", ["cd_kernel", "cd_kernel_poly_y", "mixed_cd_kernel", "abc_kernel"]),
    "biorth.second_kind": ("opgb.biorth", ["second_kind_values", "second_kind_from_cauchy"]),
    "transforms.christoffel": ("opgb.transforms", [
        "christoffel_gram", "christoffel_polys_deg1", "christoffel_polys_general"]),
    "transforms.geronimus": ("opgb.transforms", [
        "geronimus_first_column", "geronimus_gram", "geronimus_polys_deg1", "xi_pairing_single_mass"]),
    "transforms.linear_spectral": ("opgb.transforms", ["linear_spectral"]),
    "quad.gauss_rule": ("opgb.quad", ["gauss_rule"]),
    "quad.exactness_check": ("opgb.quad", ["exactness_check"]),
    "gram.gram_matrix": ("opgb.gram", ["gram_matrix"]),
    "gram.moments": ("opgb.gram", ["moments", "moments_discrete", "moments_classical"]),
    "gram.cauchy_moments": ("opgb.gram", ["cauchy_moments", "cauchy_from_c0"]),
    "classical": ("opgb.classical", [
        "pearson_data", "classical_moments", "classical_subdiagonal", "classical_eigenvalue",
        "diff_operator_matrix"]),
    "cli.run": ("opgb.cli", ["run"]),
    "cli.canonical_json": ("opgb.cli", ["canonical_json"]),
}
MATMUL = "numlin.matmul"
JOB = "job"


def bits(x):
    if isinstance(x, float):
        return 0
    q = Fraction(x)
    return q.numerator.bit_length() + q.denominator.bit_length()


class Tracer:
    """Span recorder. Spans are (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.on = False
        self.h_bits = 0
        self.s_bits = 0
        self.companion = 0
        self._undo = []

    def span(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer.span(name, fn, *args, **kwargs)
            if tracer.on:
                tracer.observe(name, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def observe(self, name, out):
        """Operand sizes and outcome counts, taken outside any span's clock."""
        t0 = time.perf_counter()
        if name == "biorth.build_families":
            self.h_bits = max([self.h_bits] + [bits(v) for v in out.h])
            self.s_bits = max([self.s_bits] + [bits(v) for row in out.s1.rows for v in row])
        elif name == "quad.gauss_rule" and out.method == "companion":
            self.companion += 1
        # Keep the observation out of the enclosing span's self time.
        if self.stack:
            self.spans[self.stack[-1]][1] += time.perf_counter() - t0

    def install(self):
        """Wrap every listed function in every opgb module that binds it."""
        originals = {}
        for name, (modname, fnames) in LAYERS.items():
            mod = importlib.import_module(modname)
            for fname in fnames:
                originals[id(getattr(mod, fname))] = (name, getattr(mod, fname))
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "opgb" and not modname.startswith("opgb."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is originals[id(value)][1]:
                    setattr(mod, attr, wrappers[id(value)])
                    self._undo.append((mod, attr, value))
        matrix = importlib.import_module("opgb.numlin").Matrix
        matmul = matrix.__matmul__
        matrix.__matmul__ = self._wrap(MATMUL, matmul)
        self._undo.append((matrix, "__matmul__", matmul))

    def uninstall(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def report(self):
        """Per-layer self seconds and call counts, and the sum of self times."""
        cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                cover[parent] += end - start
        self_s, calls = {}, {}
        for (name, start, end, _), child in zip(self.spans, cover):
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
            calls[name] = calls.get(name, 0) + 1
        roots = sum(end - start for _, start, end, parent in self.spans if parent is None)
        return self_s, calls, roots
