import json
import os

import pytest

from quatlfun import cache
from quatlfun.brandtforms import QuotientGraph
from quatlfun.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestLfun:
    def test_basic_run_and_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "artifacts")
        code, out = run_cli(["lfun", "--nminus", "11", "--p", "5", "--n", "1",
                             "--mmax", "1", "--K", "-3", "--out", out_dir],
                            capsys)
        assert code == 0
        assert "alpha_5 = 1" in out
        assert "mu(L_p) = 0" in out
        names = sorted(os.listdir(out_dir))
        assert names == ["L_p.json", "L_phi.json", "certificate.json",
                         "mu_report.json"]
        first = {n: open(os.path.join(out_dir, n)).read() for n in names}
        # rerun with a warm cache: byte-identical artifacts
        cache = str(tmp_path / "cache")
        code, _ = run_cli(["lfun", "--nminus", "11", "--p", "5", "--n", "1",
                           "--mmax", "1", "--K", "-3", "--out", out_dir,
                           "--cache", cache], capsys)
        assert code == 0
        code, _ = run_cli(["lfun", "--nminus", "11", "--p", "5", "--n", "1",
                           "--mmax", "1", "--K", "-3", "--out", out_dir,
                           "--cache", cache], capsys)
        assert code == 0
        second = {n: open(os.path.join(out_dir, n)).read() for n in names}
        assert first == second
        assert os.listdir(cache)  # class sets were persisted

    def test_invalid_K_rejected(self, capsys):
        # 11 must be inert in K; -7 is a square mod 11
        code = main(["lfun", "--nminus", "11", "--p", "5", "--K", "-7"])
        assert code == 2

    def test_fixture_eigenform(self, tmp_path, capsys):
        fixture = tmp_path / "f.json"
        fixture.write_text(json.dumps({
            "p": 5, "n": 1,
            "a": {"2": -2, "3": -1, "5": 1, "7": -2, "13": 4, "17": -2, "19": 0},
            "eps": {"11": 1}}))
        code, out = run_cli(["lfun", "--nminus", "11", "--p", "5", "--n", "1",
                             "--mmax", "1", "--K", "-3",
                             "--eigenform", str(fixture)], capsys)
        assert code == 0


class TestBrandt:
    def test_disc11(self, capsys):
        code, out = run_cli(["brandt", "--disc", "11", "--primes", "2,3"], capsys)
        assert code == 0
        assert "class number 2" in out and "mass 5/12" in out
        data = json.loads(out.strip().splitlines()[-1])
        assert data["matrices"]["2"] == [[1, 2], [3, 0]]

    @pytest.mark.parametrize("ell", ["0", "1", "4", "11"])
    def test_bad_prime_exits_2(self, ell, capsys):
        # 11 ramifies; 0, 1 and 4 are not primes
        code = main(["brandt", "--disc", "11", "--primes", f"3,{ell}"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "matrices" not in captured.out

    def test_cached_class_set_with_swapped_units_exits_5(self, tmp_path, capsys):
        store = tmp_path / "cache"
        argv = ["brandt", "--disc", "11", "--primes", "3", "--cache", str(store)]
        try:
            assert main(argv) == 0
            (entry,) = store.iterdir()
            data = json.loads(entry.read_text())
            assert data["unit_counts"] == [4, 6]
            data["unit_counts"].reverse()  # the mass still certifies
            entry.write_text(json.dumps(data))
            _assert_load_fails(store, data, "units")
            assert main(argv) == 5
            assert "cached class 0: its left order has 4 units" in capsys.readouterr().err
        finally:
            cache.configure(None)

    def test_cached_representative_not_right_stable_exits_5(self, tmp_path, capsys):
        store = tmp_path / "cache"
        argv = ["brandt", "--disc", "11", "--primes", "3", "--cache", str(store)]
        try:
            assert main(argv) == 0
            (entry,) = store.iterdir()
            data = json.loads(entry.read_text())
            # Z<1,i,j,k> in (-1, -11): its left order has the 4 units of the
            # class it replaces, so only right stability can catch it
            assert (data["algebra"], data["unit_counts"][0]) == ([-1, -11], 4)
            data["reps"][0] = {"den": 1, "rows": [[int(i == j) for j in range(4)]
                                                  for i in range(4)]}
            entry.write_text(json.dumps(data))
            _assert_load_fails(store, data, "right-stable")
            assert main(argv) == 5
            assert "right-stable" in capsys.readouterr().err
        finally:
            cache.configure(None)

    @pytest.mark.parametrize("case", ["zero row", "other basis"])
    def test_cached_representative_not_canonical_exits_5(self, case, tmp_path, capsys):
        store = tmp_path / "cache"
        argv = ["brandt", "--disc", "11", "--primes", "3", "--cache", str(store)]
        try:
            assert main(argv) == 0
            (entry,) = store.iterdir()
            data = json.loads(entry.read_text())
            rows = data["reps"][1]["rows"]
            if case == "zero row":
                rows[0] = [0, 0, 0, 0]
            else:
                # the same lattice, but not its Hermite basis
                rows[0] = [x + y for x, y in zip(rows[0], rows[1])]
            entry.write_text(json.dumps(data))
            _assert_load_fails(store, data, "cached class 1: .* Hermite basis")
            assert main(argv) == 5
            assert "cached class 1" in capsys.readouterr().err
        finally:
            cache.configure(None)

    def test_cached_translate_of_another_class_exits_5(self, tmp_path, capsys):
        store = tmp_path / "cache"
        argv = ["brandt", "--disc", "29", "--primes", "3", "--cache", str(store)]
        try:
            assert main(argv) == 0
            (entry,) = store.iterdir()
            data = json.loads(entry.read_text())
            # classes 0 and 1 both have 2 units: storing (1+i)·I_0 in place of
            # I_1 keeps right stability, the unit counts and the mass
            assert data["unit_counts"][:2] == [2, 2]
            data["reps"][1] = _translate(data, (1, 1, 0, 0), data["reps"][0])
            entry.write_text(json.dumps(data))
            _assert_load_fails(store, data, "cached classes 0 and 1 are isometric")
            assert main(argv) == 5
            assert "cached classes 0 and 1 are isometric" in capsys.readouterr().err
        finally:
            cache.configure(None)

    @pytest.mark.parametrize("version", [None, 0, "1"])
    def test_cache_entry_of_another_schema_exits_5(self, version, tmp_path, capsys):
        store = tmp_path / "cache"
        argv = ["brandt", "--disc", "11", "--primes", "3", "--cache", str(store)]
        try:
            assert main(argv) == 0
            (entry,) = store.iterdir()
            data = json.loads(entry.read_text())
            assert data["version"] == cache.CACHE_VERSION
            if version is None:
                del data["version"]
            else:
                data["version"] = version
            entry.write_text(json.dumps(data))
            _assert_load_fails(store, data, "schema version")
            assert main(argv) == 5
            assert "schema version" in capsys.readouterr().err
        finally:
            cache.configure(None)

    def test_cache_key_is_the_full_digest(self, tmp_path):
        import hashlib
        from quatlfun.quatarith import maximal_order, algebra_from_discriminant
        order = maximal_order(algebra_from_discriminant(11))
        key = cache.class_set_key(order, 3)
        assert len(key) == 64
        payload = json.dumps({"a": order.alg.a, "b": order.alg.b,
                              "den": order.lattice.den,
                              "rows": [list(r) for r in order.lattice.rows],
                              "neighbor": 3}, sort_keys=True)
        assert key == hashlib.sha256(payload.encode()).hexdigest()

    def test_cache_does_not_leak_into_the_next_run(self, tmp_path, capsys):
        store = tmp_path / "cache"
        try:
            assert main(["brandt", "--disc", "11", "--primes", "3",
                         "--cache", str(store)]) == 0
            assert main(["brandt", "--disc", "11", "--primes", "3"]) == 0
            assert cache.cache_directory() is None
        finally:
            cache.configure(None)


def _translate(data, x, entry):
    """The stored form of x·I, I the cached lattice `entry` of the algebra."""
    from quatlfun.quatarith import QuaternionAlgebra
    from quatlfun.quatarith.lattice import Lattice4
    alg = QuaternionAlgebra(*data["algebra"])
    lat = Lattice4(entry["den"], [alg.mul(x, r) for r in entry["rows"]])
    return {"den": lat.den, "rows": [list(r) for r in lat.rows]}


def _assert_load_fails(store, data, match):
    """The tampered entry is refused when it is loaded, before any Brandt matrix."""
    from quatlfun.errors import InvariantViolationError
    from quatlfun.quatarith import QuaternionOrder, algebra_from_discriminant
    from quatlfun.quatarith.lattice import Lattice4
    order = QuaternionOrder(algebra_from_discriminant(data["disc"]),
                            Lattice4(data["order"]["den"], data["order"]["rows"]))
    cache.configure(str(store))
    with pytest.raises(InvariantViolationError, match=match):
        cache.load_class_set(order, data["neighbor"])


class TestAdmissible:
    def test_search_computed(self, capsys):
        code, out = run_cli(["admissible", "--f", "computed", "--K", "-3",
                             "--p", "5", "--n", "1", "--bound", "25",
                             "--nminus", "11"], capsys)
        assert code == 0
        data = json.loads(out.strip().splitlines()[-1])
        assert [(c["v"], c["eps"]) for c in data["admissible"]] == \
            [(2, 1), (17, 1), (23, 1)]

    def test_computed_system_builds_no_quotient_graph(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a quotient graph was built")
        monkeypatch.setattr(QuotientGraph, "__init__", fail)
        code, out = run_cli(["admissible", "--f", "computed", "--K", "-3",
                             "--p", "5", "--n", "1", "--bound", "25",
                             "--nminus", "11"], capsys)
        assert code == 0
        data = json.loads(out.strip().splitlines()[-1])
        assert [c["v"] for c in data["admissible"]] == [2, 17, 23]


class TestCompgroup:
    def test_theta_graph_fixture(self, tmp_path, capsys):
        fixture = tmp_path / "theta.json"
        fixture.write_text(json.dumps(
            {"vertices": 2, "edges": [[0, 1, 1], [1, 0, 1], [0, 1, 1]]}))
        code, out = run_cli(["compgroup", "--graph", str(fixture),
                             "--divisor", "1,-1"], capsys)
        assert code == 0
        assert "Phi = Z/3" in out
        assert "agrees" in out

    def test_two_cycle_lengths(self, tmp_path, capsys):
        fixture = tmp_path / "cyc.json"
        fixture.write_text(json.dumps(
            {"vertices": 2, "edges": [[0, 1, 2], [1, 0, 3]]}))
        code, out = run_cli(["compgroup", "--graph", str(fixture)], capsys)
        assert code == 0
        assert "Phi = Z/5" in out

    def test_disconnected_graph_sums_cycle_ranks(self, tmp_path, capsys):
        fixture = tmp_path / "two.json"
        fixture.write_text(json.dumps(
            {"vertices": 5, "edges": [[0, 1, 1], [1, 0, 1], [2, 3, 2], [3, 2, 3],
                                      [3, 4, 1], [4, 4, 1]]}))
        code, out = run_cli(["compgroup", "--graph", str(fixture)], capsys)
        assert code == 0
        assert "cycle rank 2" in out
        data = json.loads(out.strip().splitlines()[-1])
        assert data == {"rank": 2, "phi": ["Z/2", "Z/5"]}

    def test_json_line_matches_golden(self, tmp_path, capsys):
        # the disc-29 dual graph at p = 5: Phi = Z/5 + Z/70, two divisors
        golden = os.path.join(os.path.dirname(__file__), "golden",
                              "component_groups.json")
        with open(golden) as fh:
            data = json.load(fh)
        want = data["cli"]
        fixture = tmp_path / "dual.json"
        fixture.write_text(json.dumps(data[want["graph"]]["graph"]))
        argv = ["compgroup", "--graph", str(fixture)]
        for chain in want["divisors"]:
            argv += ["--divisor", chain]
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert out.strip().splitlines()[-1] == want["line"]


class TestFitting:
    def test_demo_presentation(self, capsys):
        code, out = run_cli(["fitting", "--matrix", "[[5,0],[0,25]]",
                             "--p", "5", "--n", "3"], capsys)
        assert code == 0
        data = json.loads(out.strip().splitlines()[-1])
        assert data["exponent"] == 3

    def test_free_module(self, capsys):
        code, out = run_cli(["fitting", "--matrix", "[[0]]",
                             "--p", "5", "--n", "2"], capsys)
        assert code == 0
        assert "zero" in out


class TestSelftest:
    def test_fast_criteria(self, capsys):
        code, out = run_cli(["selftest", "--criteria", "9"], capsys)
        assert code == 0
        assert "criterion 9: PASS" in out

    def test_unknown_criterion_exits_2(self, capsys):
        code = main(["selftest", "--criteria", "9,99"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "99" in captured.err
        assert "criterion" not in captured.out  # rejected before any runs


class TestMalformedInput:
    """Bad outside input exits 2 with an error line, not a traceback."""

    @staticmethod
    def exit_code_and_stderr(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as ex:  # argparse rejects a flag value this way
            code = ex.code
        return code, capsys.readouterr().err

    @pytest.fixture
    def graph_file(self, tmp_path):
        fixture = tmp_path / "cyc.json"
        fixture.write_text(json.dumps({"vertices": 2, "edges": [[0, 1, 2], [1, 0, 3]]}))
        return str(fixture)

    @pytest.mark.parametrize("argv", [
        ["brandt", "--disc", "11", "--primes", "2,x"],
        ["selftest", "--criteria", "1,x"],
        ["fitting", "--matrix", "[[1,2]", "--p", "5", "--n", "1"],
    ], ids=["brandt-primes", "selftest-criteria", "fitting-matrix"])
    def test_rejected_with_exit_2(self, argv, capsys):
        code, err = self.exit_code_and_stderr(argv, capsys)
        assert code == 2
        assert "error:" in err

    def test_compgroup_divisor(self, graph_file, capsys):
        code, err = self.exit_code_and_stderr(
            ["compgroup", "--graph", graph_file, "--divisor", "1,x"], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("text", ["{vertices: 2", "[]", '{"vertices": 2}',
                                      '{"vertices": 2, "edges": [[0, 1]]}'],
                             ids=["not-json", "not-object", "no-edges", "short-edge"])
    def test_compgroup_graph_malformed(self, text, tmp_path, capsys):
        fixture = tmp_path / "bad.json"
        fixture.write_text(text)
        code, err = self.exit_code_and_stderr(["compgroup", "--graph", str(fixture)],
                                              capsys)
        assert code == 2
        assert "error:" in err


class TestRaise:
    def test_two_prime_raise(self, capsys):
        code, out = run_cli(["raise", "--v1", "2", "--v2", "17", "--K", "-3",
                             "--p", "5", "--n", "1", "--nminus", "11",
                             "--bound", "50"], capsys)
        assert code == 0
        data = json.loads(out.strip().splitlines()[-1])
        assert data["success"] is True
        assert data["eps"] == [1, 1]

    def test_no_sample_prime_exits_2(self, tmp_path, capsys):
        # 11a mod 5: a_2 = a_17 = 3, so 2 and 17 are admissible, but
        # --bound 1 samples no prime
        fixture = tmp_path / "f11a.json"
        fixture.write_text(json.dumps({"p": 5, "n": 1, "a": {"2": 3, "17": 3},
                                       "eps": {"11": 1}}))
        code = main(["raise", "--v1", "2", "--v2", "17", "--K", "-3",
                     "--p", "5", "--n", "1", "--nminus", "11",
                     "--f", str(fixture), "--bound", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "sample" in captured.err
        assert "found" not in captured.out

    def test_inadmissible_rejected(self, capsys):
        code = main(["raise", "--v1", "3", "--v2", "17", "--K", "-3",
                     "--p", "5", "--n", "1", "--nminus", "11"])
        assert code == 2
