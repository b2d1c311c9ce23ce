"""The benchmark's hooks into the package, and the package's exports, still resolve.

perfbench/tracer.py patches every function and method named in its SPANS
table, and perfbench/run.py asks quatlfun.cache.cache_directory() before each
pass. A rename in the package would break the benchmark; these tests fail
first. The tracer module is only read, never installed. Every name a
subpackage lists in __all__ must exist, so a deleted helper cannot stay
advertised. The package keeps one builder of quaternion norm Grams,
lattice elements in quatarith stay integer rows over a denominator, and the
tree, its transport, the torus and the measure compute in integers only.
"""

import importlib
import importlib.util
import os
import re

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "quatlfun")


def _tracer_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


def test_traced_targets_resolve():
    missing = []
    for span, (module, attr) in _tracer_spans().items():
        mod = importlib.import_module(module)
        if "." in attr:
            # a method is patched on its class, so it must be defined there
            cls_name, meth = attr.split(".")
            target = vars(getattr(mod, cls_name, object)).get(meth)
        else:
            target = getattr(mod, attr, None)
        if not callable(target):
            missing.append(span)
    assert missing == []


@pytest.mark.parametrize("package", ["quatlfun.exactalg", "quatlfun.quatarith"])
def test_package_exports_resolve(package):
    mod = importlib.import_module(package)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_cache_directory_exists():
    from quatlfun import cache
    assert callable(cache.cache_directory)


def test_one_norm_gram_builder():
    # QuaternionAlgebra.norm_gram is the only place a norm Gram is built;
    # a trd_pair call anywhere else would be a second builder
    allowed = os.path.join("quatarith", "algebra.py")
    callers = []
    for root, _, files in os.walk(SRC):
        for name in files:
            path = os.path.join(root, name)
            if name.endswith(".py") and not path.endswith(allowed):
                with open(path) as fh:
                    if "trd_pair(" in fh.read():
                        callers.append(os.path.relpath(path, SRC))
    assert callers == []


def test_quotient_graph_built_only_where_the_tree_is_walked():
    # Hecke matrices come from class sets; a QuotientGraph is built only for
    # the L-element's tree (pipeline) and for criterion 2's transport check
    builders = []
    for root, _, files in os.walk(SRC):
        for name in files:
            path = os.path.join(root, name)
            if name.endswith(".py"):
                with open(path) as fh:
                    if "QuotientGraph(" in fh.read():
                        builders.append(os.path.relpath(path, SRC))
    assert sorted(builders) == ["acceptance.py", "pipeline.py"]


def _imports_fractions(path):
    with open(path) as fh:
        return re.search(r"^\s*(from|import)\s+fractions\b", fh.read(), re.M) is not None


def test_lattice_elements_are_integer_rows():
    # orders, ideals and their elements are (den, integer rows); Fractions
    # stay in lattice.py (`covolume`, `invert`), ideal.py (nrd(I)) and
    # classset.py (the mass)
    allowed = {"lattice.py", "ideal.py", "classset.py"}
    package = os.path.join(SRC, "quatarith")
    importers = {name for name in os.listdir(package)
                 if name.endswith(".py") and _imports_fractions(os.path.join(package, name))}
    assert importers - allowed == set()


def test_tree_torus_and_measure_are_integer_only():
    # the Bruhat-Tits tree, the tree transport, the torus orbits and the
    # measure need no Fraction; the Fraction tree is tests/oracles.py's
    # reference
    modules = ("bttree.py", "brandtforms.py", "toruscm.py", "padicl.py")
    assert [m for m in modules if _imports_fractions(os.path.join(SRC, m))] == []
