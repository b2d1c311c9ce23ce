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
alone. The lattice layer takes rank 4 only: its kernels refuse a Gram or a
row of any other size before any work, and the generic-rank code and the
test-only v-new kernel are gone; a Lattice4 built without reduction takes a
row-Hermite basis only. `isometric` and the class set's pair forms read
I·conj(J) through one pair-Gram function. `primes` holds the one p-adic
valuation and the one Hensel lift, and no module of the package or of the
tests imports a name it never reads.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import textwrap

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
TESTS = os.path.dirname(__file__)
SRC = os.path.join(TESTS, os.pardir, "src", "quatlfun")


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


def _sources(top=SRC):
    """(path relative to top, text) of every module under top, the package by default."""
    for root, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    yield os.path.relpath(path, top), fh.read()


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


def _other_rank_inputs():
    """(kernel, input) pairs of a 3x3 and a 5x5 size, and a row list whose
    second row alone is five wide."""
    from quatlfun.quatarith import lattice
    runs = {"lagrange_reduce": lattice.lagrange_reduce,
            "PreparedForm": lattice.PreparedForm,
            "value_counts": lambda g: lattice.value_counts(g, 4),
            # raises on the call, before the generator is asked for a vector
            "enumerate_by_value": lambda g: lattice.enumerate_by_value(g, 4),
            "shortest_value_and_vector": lattice.shortest_value_and_vector,
            "hnf_rows": lattice.hnf_rows,
            "hnf_mod": lambda rows: lattice.hnf_mod(rows, 6)}
    for n in (3, 5):
        gram = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for name, run in runs.items():
            yield pytest.param(run, gram, id=f"{name}-{n}x{n}")
    for name in ("hnf_rows", "hnf_mod"):
        yield pytest.param(runs[name], [[1, 0, 0, 0], [0, 0, 0, 0, 7]], id=f"{name}-wide-row")


@pytest.mark.parametrize("run,arg", _other_rank_inputs())
def test_lattice_kernels_take_rank_4_only(run, arg):
    from quatlfun.errors import UsageError
    with pytest.raises(UsageError):
        run(arg)


def _not_hermite4():
    """Row sets that Lattice4(..., reduce=False) must refuse: a 4x4 basis
    with row i zero left of column i, a positive pivot at (i, i) and the
    entries above it in [0, pivot) is the only one it takes as it is."""
    unit = [[int(r == c) for c in range(4)] for r in range(4)]
    yield pytest.param(unit[:3], id="three-rows")
    yield pytest.param(unit + [[0, 0, 0, 1]], id="five-rows")
    yield pytest.param([r[:3] for r in unit], id="three-columns")
    diag = [[3 * int(r == c) for c in range(4)] for r in range(4)]
    for name, (r, c, x) in {"zero-pivot": (0, 0, 0), "negative-pivot": (1, 1, -3),
                            "below-the-diagonal": (3, 1, 1),
                            "above-a-pivot-too-large": (0, 2, 3),
                            "above-a-pivot-negative": (1, 3, -1)}.items():
        rows = [list(row) for row in diag]
        rows[r][c] = x
        yield pytest.param(rows, id=name)


@pytest.mark.parametrize("rows", _not_hermite4())
def test_lattice4_without_reduction_wants_a_hermite_basis(rows, monkeypatch):
    # Lattice4(1, three unit rows, reduce=False) used to build, and its
    # coordinates() then raised a bare ValueError
    from quatlfun.errors import UsageError
    from quatlfun.quatarith import lattice

    def no_work(*_args, **_kw):
        raise AssertionError("Lattice4 started work before checking its rows")
    monkeypatch.setattr(lattice, "hnf_rows", no_work)
    monkeypatch.setattr(lattice, "gcd", no_work)
    with pytest.raises(UsageError, match="Hermite"):
        lattice.Lattice4(1, rows, reduce=False)


def test_lattice4_without_reduction_keeps_a_hermite_basis():
    from quatlfun.quatarith import lattice
    rows = [[2, 1, 0, 3], [0, 3, 2, 1], [0, 0, 4, 0], [0, 0, 0, 5]]
    lat = lattice.Lattice4(6, rows, reduce=False)
    assert lat.key() == lattice.Lattice4(6, rows).key() == (6, tuple(map(tuple, rows)))
    assert lattice.Lattice4(4, [[2 * x for x in r] for r in rows], reduce=False) == \
        lattice.Lattice4(2, rows)


def _bad_scalar_calls():
    """Kernel calls with a modulus or a denominator that is not positive; a
    negative k once gave a basis that is not Hermite, and 0 a bare
    ZeroDivisionError."""
    from quatlfun.quatarith import lattice
    unit = lattice.Lattice4(1, [[int(r == c) for c in range(4)] for r in range(4)])
    for k in (-3, 0):
        yield pytest.param(lambda k=k: lattice.hnf_mod([[1, 2, 3, 4]], k), id=f"hnf_mod-k{k}")
    for den in (-1, 0):
        yield pytest.param(lambda den=den: unit.coordinates((1, 2, 3, 4), den),
                           id=f"coordinates-den{den}")
        yield pytest.param(lambda den=den: unit.contains((1, 2, 3, 4), den),
                           id=f"contains-den{den}")
    # the denominator is checked before the rows: these have rank 1, which
    # hnf_rows would report as an InvariantViolationError
    for den in (-1, 0):
        yield pytest.param(lambda den=den: lattice.Lattice4(den, [[1, 0, 0, 0]]),
                           id=f"Lattice4-den{den}")


@pytest.mark.parametrize("call", _bad_scalar_calls())
def test_lattice_kernels_refuse_a_bad_modulus_or_denominator(call, monkeypatch):
    from quatlfun.errors import UsageError
    from quatlfun.quatarith import lattice

    def no_work(*_args, **_kw):
        raise AssertionError("the kernel started work before checking its scalar")
    monkeypatch.setattr(lattice, "_check_width", no_work)
    monkeypatch.setattr(lattice, "hnf_rows", no_work)
    with pytest.raises(UsageError, match="positive"):
        call()


def test_generic_rank_code_is_gone():
    # the trace-norm search pads its rank-3 form to rank 4, and the v-new
    # kernel had no caller outside tests
    from quatlfun import brandtforms
    from quatlfun.quatarith import lattice
    left = [name for module, name in ((lattice, "integer_kernel"), (lattice, "_prepare"),
                                      (lattice, "_insert_rows"),
                                      (brandtforms, "degeneracy_and_vnew"))
            if hasattr(module, name)]
    assert left == []


def _names_called(func):
    """The names that func's body calls, as a bare name or an attribute."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_one_product_gram_route():
    # the class set's pair forms, `isometric` and `isometry_witness` read
    # I·conj(J) through one function, `ideal.pair_gram`, and the witness
    # maps back through its index-checked pair basis; I·P_q is read off I's
    # Gram mod q; no product lattice is built, and no two-sided prime; the
    # class set keeps no side data of its own
    from quatlfun.quatarith import classset, ideal, order
    assert classset.pair_gram is ideal.pair_gram
    assert "pair_gram" in _names_called(classset.ClassSet._pair_forms)
    assert "pair_gram" in _names_called(ideal.isometric)
    assert {"pair_gram", "_pair_basis"} <= _names_called(ideal.isometry_witness)
    assert "_pair_basis" in _names_called(ideal.pair_gram)
    assert "kernel_mod" in _names_called(classset._times_prime)
    assert [name for module, name in ((ideal.RightIdeal, "product_lattice"),
                                      (ideal.RightIdeal, "conjugate_lattice"),
                                      (ideal, "_element_of_norm"),
                                      (order, "two_sided_prime"),
                                      (order, "_radical_mod_local"))
            if hasattr(module, name)] == []
    assert "_conjugate" not in inspect.getsource(ideal.RightIdeal.__init__)
    assert not hasattr(classset, "_PairSide")
    assert not any(hasattr(classset.ClassSet, name) for name in ("_side", "_pair_gram"))
    assert "_sides" not in inspect.getsource(classset.ClassSet.__init__)


def _remainder_loops(text):
    """Line numbers of the `while` loops whose condition takes a remainder."""
    return [node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.While)
            and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod)
                    for sub in ast.walk(node.test))]


def test_one_valuation():
    # primes.valuation is the one v_p (prime_factors and first_coprime_prime
    # divide there too); the acceptance oracles keep their own loop, as an
    # oracle shares no code with what it checks
    found = sorted(rel for rel, text in _sources() if _remainder_loops(text))
    assert found == ["acceptance.py", "primes.py"]


def test_one_hensel_lift():
    # the splitting's roots and the unit root are lifted by primes.hensel_lift,
    # and no other module runs its own Newton steps
    from quatlfun import brandtforms
    from quatlfun.quatarith import splitting
    assert "hensel_lift" in _names_called(brandtforms.hensel_unit_root)
    assert "hensel_lift" in _names_called(splitting._hensel_roots)
    assert [rel for rel, text in _sources() if ".bit_length() + 2" in text] == ["primes.py"]


# tests/oracles.py imports the acceptance oracles under their test-suite
# names, for the test modules to import from it
_ORACLE_REEXPORTS = {("oracles.py", name) for name in
                     ("curve_a_ell", "kronecker_oracle", "spanning_tree_weight_sum")}


def _unused_imports(text):
    """The names a module imports and never reads; a name in __all__ is read."""
    tree = ast.parse(text)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return bound - read


def test_no_unused_imports():
    found = {(rel, name) for top in (SRC, TESTS) for rel, text in _sources(top)
             for name in _unused_imports(text)}
    assert found == _ORACLE_REEXPORTS
