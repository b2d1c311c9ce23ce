"""Byte-for-byte pin of the L-element pipeline's artifacts.

The golden files under golden/N11-p5-n1-m2-K-3/ were written by
write_artifacts for run_lfun(N- = 11, p = 5, n = 1, m_max = 2, K = -3); any
change to the eigenform, the measure or the certificates shows up here.
"""

import json
import os

import pytest

from quatlfun.pipeline import PipelineConfig, run_lfun, write_artifacts

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "N11-p5-n1-m2-K-3")


def test_artifacts_match_golden_files(tmp_path):
    result = run_lfun(PipelineConfig(n_plus=1, n_minus=11, p=5, n=1, m_max=2,
                                     disc_k=-3))
    write_artifacts(result, str(tmp_path))
    names = sorted(os.listdir(GOLDEN))
    assert names == ["L_p.json", "L_phi.json", "certificate.json", "mu_report.json"]
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(GOLDEN, name), "rb") as want, \
                open(os.path.join(tmp_path, name), "rb") as got:
            assert got.read() == want.read(), name


def _no_class_set(*args, **kwargs):
    raise AssertionError("class_set_avoiding called for a rejected configuration")


def test_mmax_beyond_torus_precision_rejected_before_any_work(monkeypatch):
    from quatlfun import pipeline
    from quatlfun.cli import main
    from quatlfun.errors import ConfigurationError
    monkeypatch.setattr(pipeline, "class_set_avoiding", _no_class_set)
    config = PipelineConfig(n_plus=1, n_minus=11, p=5, n=1, m_max=7, disc_k=-3)
    with pytest.raises(ConfigurationError):
        run_lfun(config)
    assert main(["lfun", "--nminus", "11", "--p", "5", "--mmax", "7",
                 "--K", "-3"]) == 2
    # m_max = 6 needs precision exactly 16 and is accepted
    PipelineConfig(n_plus=1, n_minus=11, p=5, n=1, m_max=6, disc_k=-3).validate()


def test_ramified_p_rejected_before_any_work(monkeypatch):
    # p = 3 ramifies in Q(sqrt(-3)); the torus refused it only after the
    # class sets, the eigensystem and the quotient graph were built
    from types import SimpleNamespace
    from quatlfun import pipeline
    from quatlfun.brandtforms import EigenSystem
    from quatlfun.cli import main
    from quatlfun.errors import ConfigurationError
    monkeypatch.setattr(pipeline, "class_set_avoiding", _no_class_set)
    config = PipelineConfig(n_plus=1, n_minus=11, p=3, n=1, m_max=2, disc_k=-3)
    with pytest.raises(ConfigurationError, match="p = 3 ramifies in K"):
        run_lfun(config)
    assert main(["lfun", "--nminus", "11", "--p", "3", "--K", "-3"]) == 2
    pair = SimpleNamespace(new=EigenSystem(3, 1, {}), v1=2, v2=17, old_disc=11)
    with pytest.raises(ConfigurationError, match="p = 3 ramifies in K"):
        pipeline.raised_l_element(pair, -3, 1, 1)


def _no_quotient(*args, **kwargs):
    raise AssertionError("quotient graph built for a rejected configuration")


@pytest.mark.parametrize("m", [-1, 7])
def test_raised_l_element_rejects_bad_depth_before_any_work(monkeypatch, m):
    from quatlfun import pipeline
    from quatlfun.errors import ConfigurationError
    monkeypatch.setattr(pipeline, "_torus_quotient", _no_quotient)
    with pytest.raises(ConfigurationError):
        pipeline.raised_l_element(None, -3, 1, m)


@pytest.mark.parametrize("count", [0, 2])
def test_raised_a_p_wants_exactly_one_vertex_system(monkeypatch, count):
    # a_p is read off the one vertex system that carries the raised
    # eigenvalues; none, or two, is a DataMissingError that names the count
    from types import SimpleNamespace
    from quatlfun import pipeline
    from quatlfun.brandtforms import EigenSystem
    from quatlfun.errors import DataMissingError
    graph = SimpleNamespace(vertex_classes=None)
    monkeypatch.setattr(pipeline, "_torus_quotient", lambda *args: (None, graph))
    monkeypatch.setattr(pipeline, "eigensystems_mod",
                        lambda *args, **kwargs: [EigenSystem(5, 1, {3: 4})] * count)
    new = EigenSystem(5, 1, {3: 4, 7: 3, 13: 4}, {2: 1, 11: 1, 17: 1})
    pair = SimpleNamespace(new=new, v1=2, v2=17, old_disc=11)
    with pytest.raises(DataMissingError, match=f"{count} vertex systems on disc 374"):
        pipeline.raised_l_element(pair, -3, 1, 1)


def test_alpha_read_once(tmp_path):
    # without a U_p eigenvalue, alpha is the unit root of a_p and the
    # provenance says so; a fixture's U_p is taken as it is. The target's
    # eigenvalues are reduced mod p^n on both routes, also when the fixture
    # is known mod a higher power
    computed = run_lfun(PipelineConfig(n_plus=1, n_minus=11, p=5, n=1, m_max=1,
                                       disc_k=-3))
    assert computed.system.provenance == "computed (Brandt)+p-stabilized"
    fixture = tmp_path / "f11a.json"
    fixture.write_text(json.dumps({
        "p": 5, "n": 2, "a": {"2": -2, "3": -1, "7": -2, "13": 4, "17": -2, "19": 0},
        "eps": {"11": 1, "5": 21}}))
    given = run_lfun(PipelineConfig(n_plus=1, n_minus=11, p=5, n=1, m_max=1,
                                    disc_k=-3, fixture_path=str(fixture)))
    assert given.system.provenance == "external fixture"
    assert given.alpha == computed.alpha == 1
    assert given.system.a == computed.system.a == {2: 3, 3: 4, 7: 3, 13: 4, 17: 3, 19: 0}
    assert given.artifacts() == computed.artifacts()


def test_fixture_checked_before_the_head(monkeypatch, tmp_path):
    # a fixture that does not cover the run is refused before any class set,
    # embedding or quotient graph is built
    from quatlfun import pipeline
    from quatlfun.cli import main
    monkeypatch.setattr(pipeline, "_torus_quotient", _no_quotient)
    fixture = tmp_path / "f7.json"
    fixture.write_text(json.dumps({"p": 7, "n": 1, "a": {"2": 5}, "eps": {"11": 1}}))
    assert main(["lfun", "--nminus", "11", "--p", "5", "--mmax", "1", "--K", "-3",
                 "--eigenform", str(fixture)]) == 2
