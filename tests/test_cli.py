import json
import os

import pytest

from quatlfun.brandtforms import QuotientGraph
from quatlfun.cli import main
from quatlfun.primes import is_prime

from oracles import curve_a_ell


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
        ["fitting", "--matrix", "[[25.9]]", "--p", "5", "--n", "3"],
        ["fitting", "--matrix", '[["25"]]', "--p", "5", "--n", "3"],
        ["fitting", "--matrix", "[[true]]", "--p", "5", "--n", "3"],
        ["fitting", "--matrix", "5", "--p", "5", "--n", "3"],
    ], ids=["brandt-primes", "selftest-criteria", "fitting-matrix",
            "fitting-float", "fitting-str", "fitting-bool", "fitting-not-rows"])
    def test_rejected_with_exit_2(self, argv, capsys):
        code, err = self.exit_code_and_stderr(argv, capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("text", ['{"p": 5', '{"n": 1}',
                                      '{"p": 5, "n": 1, "a": {"2": "x"}}'],
                             ids=["not-json", "no-p", "str-eigenvalue"])
    @pytest.mark.parametrize("argv", [
        ["lfun", "--nminus", "11", "--p", "5", "--mmax", "1", "--K", "-3",
         "--eigenform"],
        ["admissible", "--K", "-3", "--p", "5", "--bound", "25", "--f"],
        ["raise", "--v1", "2", "--v2", "17", "--K", "-3", "--p", "5", "--f"],
    ], ids=["lfun", "admissible", "raise"])
    def test_eigensystem_fixture_malformed(self, argv, text, tmp_path, capsys):
        fixture = tmp_path / "bad.json"
        fixture.write_text(text)
        code, err = self.exit_code_and_stderr(argv + [str(fixture)], capsys)
        assert code == 2
        assert "error:" in err and "eigensystem" in err

    @pytest.mark.parametrize("fixture,n", [
        ({"p": 7, "n": 1, "a": {"2": 5, "23": 0}}, "1"),
        ({"p": 5, "n": 1, "a": {"2": 3, "23": 1}}, "3"),
    ], ids=["other-p", "short-n"])
    @pytest.mark.parametrize("argv", [
        ["lfun", "--nminus", "11", "--p", "5", "--mmax", "1", "--K", "-3",
         "--eigenform"],
        ["admissible", "--K", "-3", "--p", "5", "--bound", "25", "--f"],
        ["raise", "--v1", "2", "--v2", "17", "--K", "-3", "--p", "5", "--f"],
    ], ids=["lfun", "admissible", "raise"])
    def test_eigensystem_fixture_must_cover_the_run(self, argv, fixture, n,
                                                     tmp_path, capsys):
        # a fixture known mod 7, or only mod 5 for a run mod 5^3, certifies
        # nothing: the run is refused before any prime is printed
        path = tmp_path / "f.json"
        path.write_text(json.dumps({**fixture, "eps": {"11": 1}}))
        code = main(argv + [str(path), "--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "fixture modulus" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["admissible", "--K", "5", "--p", "5", "--bound", "29"],
        ["admissible", "--K", "-4", "--p", "5", "--bound", "29"],
        ["raise", "--v1", "2", "--v2", "17", "--K", "5", "--p", "5", "--bound", "50"],
    ], ids=["admissible-positive-K", "admissible-split-p", "raise-positive-K"])
    def test_fixture_run_validates_its_configuration(self, argv, tmp_path, capsys):
        # a fixture run is refused as the computed run is: a positive K, or a
        # p that splits in K, exits 2 before any output
        path = tmp_path / "f11a.json"
        path.write_text(json.dumps({
            "p": 5, "n": 1, "eps": {"11": 1},
            "a": {str(ell): curve_a_ell(ell) % 5 for ell in range(2, 51)
                  if is_prime(ell) and ell not in (5, 11)}}))
        for system in (str(path), "computed"):
            code = main(argv + ["--f", system])
            captured = capsys.readouterr()
            assert code == 2
            assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["lfun", "--nminus", "11", "--p", "5", "--K", "-3"],
        ["brandt", "--disc", "11", "--primes", "3"],
        ["admissible", "--K", "-3", "--p", "5", "--bound", "25"],
        ["raise", "--v1", "2", "--v2", "17", "--K", "-3", "--p", "5"],
        ["selftest", "--criteria", "1"],
    ], ids=["lfun", "brandt", "admissible", "raise", "selftest"])
    def test_cache_flag_is_gone(self, argv, tmp_path, capsys):
        # every class set is walked and certified in the run that reads it
        code, err = self.exit_code_and_stderr(argv + ["--cache", str(tmp_path)], capsys)
        assert code == 2
        assert "unrecognized arguments: --cache" in err
        assert os.listdir(tmp_path) == []

    def test_compgroup_divisor(self, graph_file, capsys):
        code, err = self.exit_code_and_stderr(
            ["compgroup", "--graph", graph_file, "--divisor", "1,x"], capsys)
        assert code == 2
        assert "error:" in err

    def test_compgroup_divisor_on_two_components(self, tmp_path, capsys):
        # omega is defined on a connected graph's Phi only, so a divisor on
        # two components is refused before anything is printed
        fixture = tmp_path / "two.json"
        fixture.write_text(json.dumps({"vertices": 4, "edges": [[0, 1, 1], [1, 0, 2],
                                                                [2, 3, 1], [3, 2, 3]]}))
        code = main(["compgroup", "--graph", str(fixture), "--divisor", "1,-1,0,0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err and "connected" in captured.err
        assert captured.out == ""

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

    def test_fixture_known_mod_a_higher_power(self, tmp_path, capsys):
        # 11a known mod 25 runs mod 5 as 11a known mod 5 does; it was refused
        # (exit 2), its certificates mod 5 checked against a system mod 25
        lines = []
        for n in (2, 1):
            fixture = tmp_path / f"f11a-mod5^{n}.json"
            fixture.write_text(json.dumps({
                "p": 5, "n": n, "eps": {"11": 1},
                "a": {str(ell): curve_a_ell(ell) % 5 ** n for ell in range(2, 51)
                      if is_prime(ell) and ell not in (5, 11)}}))
            code, out = run_cli(["raise", "--v1", "2", "--v2", "17", "--K", "-3",
                                 "--p", "5", "--n", "1", "--nminus", "11",
                                 "--bound", "50", "--f", str(fixture)], capsys)
            assert code == 0
            assert "congruent eigensystem found on disc 374" in out
            lines.append(out.strip().splitlines()[-1])
        assert lines[0] == lines[1]

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
