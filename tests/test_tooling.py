"""The benchmark's hooks into the package, and the package's exports, still resolve.

perfbench/tracer.py patches every function and method named in its SPANS
table, and perfbench/run.py asks quatlfun.cache.cache_directory() before each
pass. A rename in the package would break the benchmark; these tests fail
first. The tracer module is only read, never installed. Every name a
subpackage lists in __all__ must exist, so a deleted helper cannot stay
advertised. The package keeps one builder of quaternion norm Grams, one
builder of quotient graphs and one neighbour-prime rule, and no module-level
state but the cache directory; lattice elements in quatarith stay integer
rows over a denominator, and the tree, its transport, the torus and the
measure compute in integers only. Theta counts come from `value_counts`
alone.
"""

import ast
import importlib
import importlib.util
import inspect
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


def _sources():
    """(path relative to the package, text) of every module of the package."""
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    yield os.path.relpath(path, SRC), fh.read()


def test_one_norm_gram_builder():
    # QuaternionAlgebra.norm_gram is the only place a norm Gram is built;
    # a trd_pair call anywhere else would be a second builder
    callers = [rel for rel, text in _sources() if "trd_pair(" in text]
    assert callers in ([], [os.path.join("quatarith", "algebra.py")])


def test_quotient_graph_built_only_where_the_tree_is_walked():
    # Hecke matrices come from class sets; a QuotientGraph is built only for
    # the L-element's tree, by pipeline._torus_quotient, which the
    # acceptance criteria build through too
    assert [rel for rel, text in _sources() if "QuotientGraph(" in text] == ["pipeline.py"]


def test_one_neighbour_prime_rule():
    # a run's class sets are walked at the prime quatarith.class_set_avoiding
    # picks; a first_coprime_prime call anywhere else would be a second rule
    callers = sorted(rel for rel, text in _sources() if "first_coprime_prime(" in text)
    assert callers == sorted([os.path.join("quatarith", "classset.py"), "primes.py"])


def test_no_module_level_mutable_state_but_the_cache_directory():
    # aim 3: no state leaks from one run into the next. A dict, list or set
    # bound at module level, or a `global` statement, is such state; the
    # cache directory is the one that remains. __all__ is an export list.
    found = set()
    for rel, text in _sources():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                    node.value, (ast.Dict, ast.List, ast.Set,
                                 ast.DictComp, ast.ListComp, ast.SetComp)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found |= {(rel, t.id) for t in targets if isinstance(t, ast.Name)
                          and t.id != "__all__"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found |= {(rel, name) for name in node.names}
    assert found == {("cache.py", "_cache_dir")}


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


def test_one_theta_counter():
    # theta counts come from value_counts alone: the Fincke-Pohst recursion
    # has no counting (halved) mode, and the class set counts its pair forms
    # in their Hermite basis, with no Lagrange pass
    from quatlfun.quatarith import lattice
    assert "halved" not in inspect.signature(lattice._fincke_pohst).parameters
    with open(os.path.join(SRC, "quatarith", "classset.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "lagrange_reduce" not in imported
