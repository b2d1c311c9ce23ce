"""The benchmark's hooks into the package, and the package's exports, still resolve.

perfbench/tracer.py patches every function and method named in its SPANS
table, and perfbench/run.py asks quatlfun.cache.cache_directory() before each
pass. A rename in the package would break the benchmark; these tests fail
first. The tracer module is only read, never installed. Every name a
subpackage lists in __all__ must exist, so a deleted helper cannot stay
advertised. The package keeps one builder of quaternion norm Grams, one
builder of quotient graphs and one neighbour-prime rule, and no module-level
state; quatarith reads no file and no cache, so every class set is walked
and certified in the run that reads it. Lattice elements in quatarith stay integer
rows over a denominator, and the tree, its transport, the torus and the
measure compute in integers only. Theta counts come from `value_counts`
alone. The lattice layer takes rank 4 only: its kernels refuse a Gram or a
row of any other size before any work, and the generic-rank code and the
test-only v-new kernel are gone. `isometric` and the class set's pair forms read
I·conj(J) through one pair-Gram function. `primes` holds the one p-adic
valuation, its one cap at n and the one Hensel lift, and no module of the
package or of the tests imports a name it never reads. Every public function,
class and method of the package has a caller in the package or the
benchmark, bar two named with their reasons, and every defaulted parameter is passed by some call,
bar three named with their reasons. `maximal_order` saturates by the
index-q search alone, with no radical or idealizer route beside it. Every
eigenvalue is read off one joint-eigenspace search, whose operators come from
one builder. Over Q there is one elimination, a fraction-free pass that
`det`, `leading_minors` and `rational_kernel` read, and the public names
defined more than once are pinned. Characters need no elimination:
exactalg/groupring.py reads a valuation off the (1 - zeta)-expansion and
imports nothing from intmatrix. Every cokernel is read prime by prime, by one
pass mod p^n per prime: the Fitting length and the component group's shape and
class coordinates reduce no matrix over Z. compgraph.py runs no Smith form
at all: the cycle basis and the boundary preimage come from the fraction-free
pass. `solve` and the Smith pivoting over Z (`eliminate`) are gone: the one
Smith form over Z is an extended Euclid over one row, the embedding's trace
row, and refuses a second row. Each falsifier of tests/test_certificates.py
passes once its certificate is made to return True at once.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import textwrap
from collections import Counter

import pytest

import test_certificates

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
    # the benchmark asks it before each pass; there is no cache to point to
    from quatlfun import cache
    assert cache.cache_directory() is None
    assert [name for name in vars(cache) if name[0] != "_"] == ["cache_directory"]


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


def test_no_module_level_mutable_state():
    # aim 3: no state leaks from one run into the next. A dict, list or set
    # bound at module level, or a `global` statement, is such state.
    # __all__ is an export list.
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
    assert found == set()


def _imported_modules(text):
    """The last dotted part of every module a source imports or imports from."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            found |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names} if node.module is None \
                else {node.module.rsplit(".", 1)[-1]}
    return found


def test_characters_need_no_elimination():
    # a character value's valuation is read off its coordinates in the basis
    # (1 - x)^i; no linear system is solved for it
    with open(os.path.join(SRC, "exactalg", "groupring.py")) as fh:
        assert "intmatrix" not in _imported_modules(fh.read())


def test_cokernels_read_prime_by_prime():
    # Fitting lengths and class coordinates come from passes mod p^n, and the
    # cycle basis and the boundary preimage from the fraction-free pass;
    # test_one_smith_form pins that neither module reaches a Smith form
    for rel in (os.path.join("exactalg", "fitting.py"), "compgraph.py"):
        with open(os.path.join(SRC, rel)) as fh:
            assert "eliminate_mod" in _calls(ast.parse(fh.read())), rel
    from quatlfun import compgraph
    assert not hasattr(compgraph.ComponentGroup, "_transform")


def test_one_smith_form():
    # solve and the Smith pivoting over Z are gone: no module of the package
    # defines, imports or calls eliminate. The embedding's trace row is the
    # one matrix the package gives smith_normal_form (kernel_basis, kept for
    # the benchmark's tracer, reads it and has no caller), and a matrix of
    # two rows is refused
    from quatlfun.errors import UsageError
    from quatlfun.exactalg import IntMatrix, intmatrix, smith_normal_form
    assert [name for name in ("solve", "_check_rhs", "_times") if hasattr(intmatrix, name)] == []
    callers = set()
    for rel, text in _sources():
        tree = ast.parse(text)
        names = _calls(tree) | {alias.name for node in ast.walk(tree)
                                if isinstance(node, (ast.Import, ast.ImportFrom))
                                for alias in node.names}
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "eliminate" not in names, rel
        callers |= {(rel, node.name) for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and _calls(node) & {"smith_normal_form", "kernel_basis"}}
    assert callers == {(os.path.join("exactalg", "intmatrix.py"), "kernel_basis"),
                       (os.path.join("quatarith", "embedding.py"), "_trace_norm_solutions")}
    with pytest.raises(UsageError, match="one row"):
        smith_normal_form(IntMatrix.identity(2))


def test_class_sets_come_from_the_walk_alone():
    # no class set is stored or loaded: quatarith imports neither os nor the
    # cache module, so nothing it returns was computed in an earlier run
    found = {(rel, name) for rel, text in _sources(os.path.join(SRC, "quatarith"))
             for name in _imported_modules(text) & {"os", "cache"}}
    assert found == set()


def _imports_fractions(path):
    with open(path) as fh:
        return re.search(r"^\s*(from|import)\s+fractions\b", fh.read(), re.M) is not None


def test_lattice_elements_are_integer_rows():
    # orders, ideals and their elements are (den, integer rows); Fractions
    # stay in ideal.py (nrd(I)) and classset.py (the mass), and neither the
    # lattice layer nor the embedding search imports them
    allowed = {"ideal.py", "classset.py"}
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


def _calls(tree):
    """The names that a tree calls, as a bare name or an attribute."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def _names_called(func):
    """The names that func's body calls."""
    return _calls(ast.parse(textwrap.dedent(inspect.getsource(func))))


def test_one_product_gram_route():
    # the class set's pair forms, `isometric` and `isometry_witness` read
    # I·conj(J) through one function, `ideal.pair_gram`, whose Gram on its
    # index-checked pair basis the witness reads and maps back through that
    # basis, built once; I·P_q is read off I's
    # Gram mod q; no product lattice is built, and no two-sided prime; the
    # class set keeps no side data of its own
    from quatlfun.quatarith import classset, ideal, order
    assert classset.pair_gram is ideal.pair_gram
    assert "pair_gram" in _names_called(classset.ClassSet._pair_forms)
    assert "pair_gram" in _names_called(ideal.isometric)
    assert {"_gram_on_pair_basis", "_pair_basis"} <= _names_called(ideal.isometry_witness)
    assert {"_gram_on_pair_basis", "_pair_basis"} <= _names_called(ideal.pair_gram)
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


def _capped_valuations(text):
    """Line numbers of the conditional expressions "n if p^n | x else v_p(x)":
    a remainder tested, a valuation taken when it is not 0."""
    return [node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.IfExp)
            and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod)
                    for sub in ast.walk(node.test))
            and "valuation" in _calls(node.orelse)]


def test_one_valuation():
    # primes.valuation is the one v_p (prime_factors and first_coprime_prime
    # divide there too), and primes.capped_valuation the one v_p capped at n;
    # the acceptance oracles keep their own loop, as an oracle shares no code
    # with what it checks
    found = sorted(rel for rel, text in _sources() if _remainder_loops(text))
    assert found == ["acceptance.py", "primes.py"]
    assert [rel for rel, text in _sources() if _capped_valuations(text)] == ["primes.py"]


_HECKE_BUILDERS = {"neighbor_matrices", "neighbor_matrix", "uq_matrix", "brandt_matrix"}


def test_one_eigenvalue_source():
    # every eigenvalue is a leaf of brandtforms.joint_eigenspaces: the
    # pipeline imports and calls no Hecke-matrix builder and reads no
    # eigenvalue off a vector, and every search takes its operators from
    # _hecke_operators, the edge eigenvector adding the tree's U_p
    from quatlfun import pipeline
    tree = ast.parse(inspect.getsource(pipeline))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert _HECKE_BUILDERS & (imported | set(_reads(tree))) == set()
    assert not hasattr(pipeline, "_eigenvalue_mod")
    searches = {}
    for rel, text in _sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and "joint_eigenspaces" in _calls(node):
                searches[rel, node.name] = _calls(node) & (
                    _HECKE_BUILDERS | {"_hecke_operators", "tp_matrix", "up_matrix"})
    assert searches == {
        ("brandtforms.py", "eigensystems_mod"): {"_hecke_operators"},
        ("brandtforms.py", "rational_eigensystems"): {"_hecke_operators"},
        ("brandtforms.py", "eigenvector_mod"): {"_hecke_operators", "up_matrix"},
    }


def test_one_hensel_lift():
    # the splitting's roots and the unit root are lifted by primes.hensel_lift,
    # and no other module runs its own Newton steps
    from quatlfun import brandtforms
    from quatlfun.quatarith import splitting
    assert {"hensel_lift", "_verify_unit_root"} <= _names_called(brandtforms.hensel_unit_root)
    assert "hensel_lift" in _names_called(splitting._hensel_roots)
    assert [rel for rel, text in _sources() if ".bit_length() + 2" in text] == ["primes.py"]


# tests/oracles.py imports the acceptance oracles under their test-suite
# names, for the test modules to import from it
_ORACLE_REEXPORTS = {("oracles.py", name) for name in
                     ("curve_a_ell", "fitting_minors_oracle", "kronecker_oracle",
                      "spanning_tree_weight_sum")}


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


# public names with no caller in the package or the benchmark, and why each
# stays
_UNCALLED = {
    ("admraise.py", "eisenstein_test"):
        "the one Eisenstein check, for the survey of small levels (ROADMAP item 6)",
    ("pipeline.py", "raised_l_element"):
        "workload W3, which has no CLI yet (ROADMAP item 8)",
}


def _public_definitions():
    """(module, qualified name, node) of every public function, class and
    method of the package."""
    for rel, text in _sources():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                yield rel, node.name, node
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef) and sub.name[0] != "_":
                        yield rel, f"{node.name}.{sub.name}", sub


def _reads(tree, kinds=(ast.Name, ast.Attribute)):
    """How often a tree reads each name, bare or as an attribute (or only as
    an attribute, with kinds=(ast.Attribute,))."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, kinds))


def test_every_public_name_has_a_caller():
    # a name only tests call is code kept correct for no run. A caller is a
    # read of the name, by name, in the package outside the definition's own
    # body, or in perfbench/*.py, or a traced SPANS entry; an import or an
    # __all__ entry is not one. A method is read as an attribute: a bare
    # name of its spelling (a local variable, say) is not a call of it
    trees = [ast.parse(text) for _, text in _sources()]
    package = sum((_reads(tree) for tree in trees), Counter())
    attributes = sum((_reads(tree, (ast.Attribute,)) for tree in trees), Counter())
    bench = {part for _, attr in _tracer_spans().values() for part in attr.split(".")}
    for _, text in _sources(os.path.dirname(TRACER)):
        bench |= set(_reads(ast.parse(text)))
    uncalled = set()
    for rel, name, node in _public_definitions():
        last = name.rsplit(".", 1)[-1]
        if "." in name:
            reads, own = attributes[last], _reads(node, (ast.Attribute,))[last]
        else:
            reads, own = package[last], _reads(node)[last]
        if last not in bench and reads <= own:
            uncalled.add((rel, name))
    assert uncalled == set(_UNCALLED)


def test_one_elimination_over_q():
    # det, leading_minors and rational_kernel read the one fraction-free
    # pass; the Bareiss determinant and the Fraction inverse are gone, and
    # the dual graph reads its leading minors off one pass, not k determinants
    from quatlfun import compgraph
    from quatlfun.exactalg import intmatrix
    from quatlfun.quatarith import lattice
    assert all("_fraction_free" in _names_called(func) for func in
               (intmatrix.det, intmatrix.leading_minors, intmatrix.rational_kernel))
    assert not hasattr(intmatrix, "_det") and not hasattr(lattice, "invert")
    assert "det" not in _calls(ast.parse(inspect.getsource(compgraph)))


# public names defined more than once in the package: the caller test
# matches by name, so a namesake's caller would hide a definition that has
# none. A new namesake fails test_namesakes_pinned until it is added here,
# with a caller of its own for each definition
_NAMESAKES = {"act", "describe", "from_json", "key", "make", "modulus", "mul",
              "neighbors", "nrd", "order", "rank", "to_json", "valuation"}


def test_namesakes_pinned():
    defined = Counter(name.rsplit(".", 1)[-1] for _, name, _ in _public_definitions())
    assert {name for name, count in defined.items() if count > 1} == _NAMESAKES


def test_one_saturation_route():
    # every saturation step is the index-q search; the radical-idealizer
    # route and its helpers are gone
    from quatlfun.quatarith import order
    assert {name for name in _names_called(order.maximal_order)
            if name[0] == "_"} == {"_enlarge_brute"}
    assert [name for name in ("_enlarge_at", "_enlarge_radical", "_radical_mod",
                              "_unit_vec", "_idealizer") if hasattr(order, name)] == []


# defaulted parameters that no call in the package or the benchmark passes,
# and why each stays
_UNPASSED_DEFAULTS = {
    ("brandtforms.py", "QuotientGraph.__init__", ("prec",)):
        "ROADMAP item 13 derives the tower precision from the run",
    ("cli.py", "main", ("argv",)):
        "the console entry point, which leaves argv to argparse",
    ("acceptance.py", "curve_point_count_a", ("a1", "a2", "a3", "a4", "a6")):
        "perfbench passes 17a's coefficients through oracles.curve_a_ell",
}


def _defaulted_parameters(tree):
    """(function node, called name, parameter, positional index or None) of
    every defaulted parameter; a method's index skips self, and a class call
    is the call of its __init__."""
    owners = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            owners.update({id(sub): node.name for sub in node.body})
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        owner = owners.get(id(node))
        bound = owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        called = owner if node.name == "__init__" else node.name
        args = node.args
        pos = args.posonlyargs + args.args
        for i in range(len(pos) - len(args.defaults), len(pos)):
            yield node, owner, called, pos[i].arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node, owner, called, arg.arg, None


def _passes(call, param, index):
    """Whether a call passes the parameter, by keyword, position or a star."""
    return (any(k.arg in (param, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index))


def test_every_default_is_passed():
    # a default that every call leaves alone is a parameter only one value
    # reaches. A call counts when its name, bare or as an attribute, is the
    # function's (the class's for __init__), in the package or perfbench/*.py
    calls = {}
    for top in (SRC, os.path.dirname(TRACER)):
        for _, text in _sources(top):
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    calls.setdefault(name, []).append(node)
    unpassed = {}
    for rel, text in _sources():
        for node, owner, called, param, index in _defaulted_parameters(ast.parse(text)):
            if not any(_passes(call, param, index) for call in calls.get(called, ())):
                key = (rel, f"{owner}.{node.name}" if owner else node.name)
                unpassed[key] = unpassed.get(key, ()) + (param,)
    assert {key + (params,) for key, params in unpassed.items()} == set(_UNPASSED_DEFAULTS)


@pytest.mark.parametrize("name", test_certificates.FALSIFIERS)
def test_falsifier_rests_on_its_certificate(name, monkeypatch):
    # with its certificate returning True at once, the corruption goes through
    owner, attr, falsify, _ = test_certificates.FALSIFIERS[name]
    monkeypatch.setattr(owner, attr, lambda *args, **kwargs: True)
    falsify()
