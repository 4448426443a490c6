"""The thirteen value types keep the behaviour they had as frozen dataclasses.

Each repr below is pinned to the dataclass output; == holds only within one
class, equal hashable records hash equal, no field can be assigned, and
defaults and __post_init__ apply as before. The fields a value type
declares exact hold no float, no integral Fraction and no list.
"""

from fractions import Fraction as F

import pytest

from opgb import biorth, classical, gram, quad, record, transforms
from opgb.cli import JobSpec
from opgb.errors import UnsupportedMeasure
from opgb.numlin import Matrix


def family():
    return biorth.build_families(Matrix([[1, 0], [0, F(1, 2)]]))


FAMILY_REPR = ("BiorthFamilies(s1=Matrix([[1, 0], [0, 1]]), s2=Matrix([[1, 0], [0, 1]]), "
               "h=(1, Fraction(1, 2)), gram=Matrix([[1, 0], [0, Fraction(1, 2)]]), hankel=True)")

# (build, the repr @dataclass gave it, hashable)
CASES = {
    "Atom": (lambda: gram.Atom(F(1, 2), 3), "Atom(q=Fraction(1, 2), w=3, d=0)", True),
    "DiscreteMeasure": (
        lambda: gram.DiscreteMeasure.from_pairs([(0, 1), (F(-1, 3), 2, 1)]),
        "DiscreteMeasure(atoms=(Atom(q=0, w=1, d=0), Atom(q=Fraction(-1, 3), w=2, d=1)))", True),
    "ClassicalWeight": (
        lambda: gram.ClassicalWeight("jacobi", F(1, 2)),
        "ClassicalWeight(family='jacobi', alpha=Fraction(1, 2), beta=0)", True),
    "BivariateTable": (
        lambda: gram.BivariateTable(((1, 0), (0, 1))), "BivariateTable(entries=((1, 0), (0, 1)))", True),
    "PearsonData": (
        lambda: classical.PearsonData(0, 0, 1, -2, 0), "PearsonData(a=0, b=0, c=1, A=-2, B=0)", True),
    "BiorthFamilies": (family, FAMILY_REPR, False),
    "SpectralMatrix": (
        lambda: biorth.SpectralMatrix(Matrix([[0, 1], [F(1, 2), 0]]), 1),
        "SpectralMatrix(j=Matrix([[0, 1], [Fraction(1, 2), 0]]), side=1)", False),
    "SecondKindValues": (
        lambda: biorth.SecondKindValues(2, (F(1, 2),), (1,)),
        "SecondKindValues(point=2, values1=(Fraction(1, 2),), values2=(1,))", True),
    "QuadratureRule": (
        lambda: quad.QuadratureRule((-0.5, 0.5), (1.0, 1.0), 3, "eigh"),
        "QuadratureRule(nodes=(-0.5, 0.5), weights=(1.0, 1.0), order=3, method='eigh')", True),
    "PolyPerturbation": (
        lambda: transforms.PolyPerturbation(((0.5, 2), (3, 1))),
        "PolyPerturbation(roots=((Fraction(1, 2), 2), (3, 1)))", True),
    "GeronimusFreeData": (
        lambda: transforms.GeronimusFreeData(((2, 0.5, F(1, 3)),)),
        "GeronimusFreeData(entries=((2, Fraction(1, 2), Fraction(1, 3)),))", True),
    "LinearSpectralResult": (
        lambda: transforms.LinearSpectralResult(family(), (1, 0, F(1, 2))),
        f"LinearSpectralResult(family={FAMILY_REPR}, moments=(1, 0, Fraction(1, 2)))", False),
    "JobSpec": (
        lambda: JobSpec("polys", {"type": "hermite"}),
        "JobSpec(command='polys', spec={'type': 'hermite'}, n=4, k=3, mode='exact', seed=0, "
        "transform='christoffel', roots=(), g_roots=(), xis=(), c0s=(), plot_range=(-1.0, 1.0), "
        "samples=20)", False),
}
NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    build, want, _ = CASES[name]
    value = build()
    assert type(value).__name__ == name and isinstance(value, record.Record)
    assert repr(value) == want


@pytest.mark.parametrize("name", NAMES)
def test_equal_within_one_class_only(name):
    build = CASES[name][0]
    a, b = build(), build()
    assert a == b and not a != b
    values = tuple(getattr(a, field) for field in record.fields(a))
    assert a != values
    for other in NAMES:
        if other != name:
            assert a != CASES[other][0]()

    class Twin(record.Record):
        __annotations__ = dict.fromkeys(record.fields(a), object)

    assert record.fields(Twin) == record.fields(a)
    assert repr(Twin(*values)).partition("(")[2] == repr(a).partition("(")[2]
    assert a != Twin(*values) and Twin(*values) != a


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_over_the_fields(name):
    build, _, hashable = CASES[name]
    a, b = build(), build()
    values = tuple(getattr(a, field) for field in record.fields(a))
    if hashable:
        assert hash(a) == hash(b) == hash(values)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned(name):
    value = CASES[name][0]()
    before = repr(value)
    first = record.fields(value)[0]
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert repr(value) == before


def test_fields_and_defaults():
    assert record.fields(gram.Atom) == ("q", "w", "d")
    assert record.fields(classical.PearsonData) == ("a", "b", "c", "A", "B")
    assert gram.Atom(1, 2) == gram.Atom(1, 2, 0) == gram.Atom(w=2, q=1)
    assert gram.Atom(1, 2).d == 0
    w = gram.ClassicalWeight("laguerre", alpha=F(1, 2))
    assert (w.alpha, w.beta) == (F(1, 2), 0)
    job = JobSpec("quadrature", {}, k=5)
    assert (job.n, job.k, job.mode, job.plot_range, job.samples) == (4, 5, "exact", (-1.0, 1.0), 20)


@pytest.mark.parametrize("args, kwargs", [
    ((1, 2, 0, 9), {}), ((1,), {}), ((1, 2), {"q": 1}), ((1, 2), {"x": 1}),
], ids=["too-many", "missing", "repeated", "unknown"])
def test_bad_construction_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        gram.Atom(*args, **kwargs)


def test_post_init_runs():
    with pytest.raises(UnsupportedMeasure, match="unknown classical family 'x'"):
        gram.ClassicalWeight("x")
    with pytest.raises(UnsupportedMeasure, match="alpha must exceed -1"):
        gram.ClassicalWeight("laguerre", alpha=-1)
    w = transforms.PolyPerturbation(((0.5, 1), (-5.0, 2)))
    assert w.roots == ((F(1, 2), 1), (-5, 2)) and type(w.roots[1][0]) is int
    assert transforms.PolyPerturbation.simple(0.25).roots == ((F(1, 4), 1),)
    assert transforms.GeronimusFreeData(((1.5, 0.0, 2),)).entries == ((F(3, 2), 0, 2),)


def test_replace_runs_post_init_and_keeps_the_rest():
    w = transforms.PolyPerturbation(((1, 1),))
    moved = record.replace(w, roots=((0.75, 1),))
    assert moved.roots == ((F(3, 4), 1),) and w.roots == ((1, 1),)
    job = JobSpec("polys", {"type": "hermite"}, n=7)
    assert record.replace(job, mode="float") == JobSpec("polys", {"type": "hermite"}, n=7, mode="float")
    with pytest.raises(UnsupportedMeasure):
        record.replace(gram.ClassicalWeight("hermite"), family="x")
    with pytest.raises(TypeError):
        record.replace(job, nonesuch=1)


# Each exact value type, built from a float and an integral Fraction in lists.
EXACT = {
    "Atom": lambda a, b: gram.Atom(a, b, b),
    "ClassicalWeight": lambda a, b: gram.ClassicalWeight("jacobi", a, b),
    "PearsonData": lambda a, b: classical.PearsonData(a, b, a, b, a),
    "BivariateTable": lambda a, b: gram.BivariateTable([[a, b], [b, a]]),
    "PolyPerturbation": lambda a, b: transforms.PolyPerturbation([[a, 1], (b, 2)]),
    "GeronimusFreeData": lambda a, b: transforms.GeronimusFreeData([[a, b, 2]]),
}


def leaves(value):
    """The scalars of a field, refusing a list anywhere in it."""
    assert not isinstance(value, list), value
    return [v for item in value for v in leaves(item)] if isinstance(value, tuple) else [value]


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_fields_are_converted(name):
    build = EXACT[name]
    value = build(0.1, F(3, 1))
    got = [v for field in record.fields(value) for v in leaves(getattr(value, field))
           if not isinstance(v, str)]
    assert F(0.1) in got and 3 in got
    assert all(type(v) is int or type(v) is F and v.denominator > 1 for v in got), got
    assert {v for v in got if type(v) is F} == {F(0.1)}
    assert value == build(F(0.1), 3) and hash(value) == hash(build(F(0.1), 3))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_is_a_typed_refusal(value):
    # A float stands for its exact value, and these have none.
    for build in (lambda: gram.ClassicalWeight("laguerre", value), lambda: gram.Atom(value, 1),
                  lambda: transforms.PolyPerturbation.simple(value)):
        with pytest.raises(UnsupportedMeasure, match="not a finite number"):
            build()


def test_replace_converts_again():
    atom = record.replace(gram.Atom(1, 2), q=0.25, w=F(4, 1))
    assert atom == gram.Atom(F(1, 4), 4) and type(atom.w) is int
    table = record.replace(gram.BivariateTable(((1,),)), entries=[[0.5]])
    assert table.entries == ((F(1, 2),),)
    weight = record.replace(gram.ClassicalWeight("laguerre"), alpha=1.5)
    assert weight.alpha == F(3, 2) and type(weight.alpha) is F


def test_float_records_keep_their_floats():
    rule = quad.QuadratureRule([-0.5, 0.5], (1.0, 1.0), 3, "eigh")
    assert rule.nodes == [-0.5, 0.5] and type(rule.weights[0]) is float
    job = JobSpec("plot-data", {}, plot_range=(-2.0, 0.1))
    assert job.plot_range == (-2.0, 0.1) and type(job.plot_range[1]) is float
    assert record.replace(job, plot_range=(0.1, 1.0)).plot_range == (0.1, 1.0)


def test_cached_band_stays_out_of_the_fields():
    f, g = family(), family()
    assert biorth.three_term_coeffs(f) == ([0, F(1, 2)], [0])
    assert "_band" in vars(f) and "_band" not in vars(g)
    assert repr(f) == repr(g) == FAMILY_REPR and f == g
    assert "_band" not in vars(record.replace(f, hankel=True))
