"""Command-line driver: schema, determinism, exit codes."""

import json

import pytest

import folcurv.cli as cli
from folcurv import curvature, oneill
from folcurv.report import dumps_report


def run(args):
    return cli.main(args)


def load(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_and_schema(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--trials", "20", "--seed", "3", "--q", "4",
                "--out", str(out), "--quiet"])
    assert code == 0
    rep = load(out)
    assert set(rep) == {"config", "checks", "findings", "summary", "version"}
    assert rep["version"] == "0.1.0"
    assert rep["config"]["command"] == "verify"
    for c in rep["checks"]:
        assert set(c) == {"name", "lhs", "rhs", "gap", "tol", "pass"}
        assert c["gap"] == c["lhs"] - c["rhs"]
        assert c["pass"]
    names = [c["name"] for c in rep["checks"]]
    assert "oneill.master_identity.q4.p2" in names
    assert "exterior.hodge_involution.q4" in names


def test_verify_deterministic_up_to_timing(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--trials", "15", "--seed", "9", "--q", "4",
                "--out", str(a), "--quiet"]) == 0
    assert run(["verify", "--trials", "15", "--seed", "9", "--q", "4",
                "--out", str(b), "--quiet"]) == 0
    ra, rb = load(a), load(b)
    ra["summary"].pop("elapsed_seconds")
    rb["summary"].pop("elapsed_seconds")
    assert ra == rb
    # and the numeric content is rendered identically, byte for byte
    ta = a.read_text().split('"elapsed_seconds"')[0]
    tb = b.read_text().split('"elapsed_seconds"')[0]
    assert ta == tb


def test_verify_detects_injected_sign_bug(tmp_path, monkeypatch):
    real = cli.bplus_norm_closed
    monkeypatch.setattr(cli, "bplus_norm_closed", lambda A, a: -real(A, a))
    code = run(["verify", "--trials", "5", "--seed", "1", "--q", "4",
                "--out", str(tmp_path / "r.json"), "--quiet"])
    assert code != 0


# ---------------------------------------------------------------------------
# hopf
# ---------------------------------------------------------------------------


def test_hopf_unit_weights_m3(tmp_path):
    out = tmp_path / "hopf.json"
    code = run(["hopf", "--m", "3", "--samples", "10", "--seed", "5",
                "--out", str(out), "--quiet"])
    assert code == 0
    rep = load(out)
    s = rep["summary"]["oneill_norm_sq"]
    assert abs(s["mean"] - 4.0) < 1e-9
    assert s["variance"] < 1e-18
    assert all(abs(v - 4.0) < 1e-9 for v in s["per_point"])
    names = [c["name"] for c in rep["checks"]]
    assert "hopf.transverse_scalar.point0" in names
    assert "hopf.kahler_parallel.point0" in names
    assert rep["findings"] == []


def test_hopf_m2(tmp_path):
    out = tmp_path / "hopf2.json"
    assert run(["hopf", "--m", "2", "--samples", "5", "--seed", "7",
                "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    assert abs(rep["summary"]["oneill_norm_sq"]["mean"] - 2.0) < 1e-9


def test_hopf_weighted_m3_variance(tmp_path):
    out = tmp_path / "hopfw.json"
    assert run(["hopf", "--m", "3", "--theta", "1,1,0.5", "--samples", "40",
                "--seed", "11", "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    assert rep["summary"]["oneill_norm_sq"]["variance"] > 0.01
    assert rep["summary"]["mean_curvature_norm"]["max"] > 1e-3
    assert rep["findings"] == []           # closed form agrees for m = 3


def test_hopf_weighted_m4_emits_discrepancy_finding(tmp_path):
    out = tmp_path / "hopf4.json"
    assert run(["hopf", "--m", "4", "--theta", "1,0.6,0.8,0.5", "--samples", "5",
                "--seed", "13", "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    kinds = {f["kind"] for f in rep["findings"]}
    assert "closed-form-discrepancy" in kinds
    vals = rep["findings"][0]["values"]
    assert "bracket" in vals and "closed" in vals


def test_hopf_rejects_bad_theta():
    assert run(["hopf", "--m", "3", "--theta", "0.5,1,1", "--quiet"]) == 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theorem,expected_gap", [
    ("3.1", 0.0), ("3.2", 0.0), ("4.1", 0.0),
])
def test_bounds_sharp_on_s5(tmp_path, theorem, expected_gap):
    out = tmp_path / f"b{theorem}.json"
    code = run(["bounds", "--theorem", theorem, "--m", "3", "--p", "2",
                "--samples", "4", "--seed", "17", "--out", str(out), "--quiet"])
    assert code == 0
    rep = load(out)
    for g in rep["summary"]["gap"]["per_check"]:
        assert abs(g - expected_gap) < 1e-9
    assert all(c["pass"] for c in rep["checks"])


def test_bounds_s7_gaps(tmp_path):
    out = tmp_path / "b7.json"
    assert run(["bounds", "--theorem", "3.1", "--m", "4", "--p", "2",
                "--samples", "3", "--seed", "19", "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    for g in rep["summary"]["gap"]["per_check"]:
        assert abs(g - 8.0) < 1e-9
    out2 = tmp_path / "b7_41.json"
    assert run(["bounds", "--theorem", "4.1", "--m", "4", "--p", "2",
                "--samples", "3", "--seed", "19", "--out", str(out2), "--quiet"]) == 0
    for g in load(out2)["summary"]["gap"]["per_check"]:
        assert abs(g - 16.0) < 1e-9


def test_bounds_sandwich_and_cor(tmp_path):
    out = tmp_path / "bs.json"
    assert run(["bounds", "--theorem", "sandwich", "--m", "3",
                "--samples", "3", "--seed", "23", "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    assert all(c["pass"] for c in rep["checks"])
    for g in rep["summary"]["gap"]["per_check"]:
        assert abs(g) < 1e-9               # equality on the round sphere
    out2 = tmp_path / "bc.json"
    assert run(["bounds", "--theorem", "cor3.1", "--m", "3", "--samples", "2",
                "--trials", "200", "--seed", "23", "--out", str(out2), "--quiet"]) == 0
    rep2 = load(out2)
    assert all(c["pass"] for c in rep2["checks"])
    assert all(c["lhs"] <= c["rhs"] + 1e-9 for c in rep2["checks"])


def test_bounds_hypothesis_violation_exits_2(capsys):
    assert run(["bounds", "--theorem", "3.1", "--m", "2", "--p", "2",
                "--quiet"]) == 2
    assert "hypothesis" in capsys.readouterr().err
    assert run(["bounds", "--theorem", "3.1", "--m", "3", "--p", "3",
                "--quiet"]) == 2


REFUSED_RUNS = [
    (["verify", "--trials", "0"], "--trials must be >= 1"),
    (["hopf", "--m", "3", "--samples", "0"], "--samples must be >= 1"),
    (["hopf", "--m", "3", "--samples", "-1"], "--samples must be >= 1"),
    (["bounds", "--theorem", "sandwich", "--m", "3", "--samples", "0"],
     "--samples must be >= 1"),
    (["bounds", "--theorem", "sandwich", "--m", "3", "--samples", "-1"],
     "--samples must be >= 1"),
    (["bounds", "--theorem", "cor3.1", "--m", "3", "--trials", "0", "--samples", "1"],
     "--trials must be >= 1"),
    (["verify", "--q", "0", "--trials", "1"], "--q must be in [2, 12]"),
    (["verify", "--q", "1", "--trials", "1"], "--q must be in [2, 12]"),
    (["verify", "--q", "-1", "--trials", "1"], "--q must be in [2, 12]"),
    (["verify", "--q", "13", "--trials", "1"], "--q must be in [2, 12]"),
]


@pytest.mark.parametrize("argv,message", REFUSED_RUNS,
                         ids=[f"argv{i}" for i in range(len(REFUSED_RUNS))])
def test_empty_runs_are_refused(capsys, argv, message):
    # a run over no trials or samples would pass vacuously or fail midway,
    # and a fiber dimension out of range would do either or exhaust memory
    assert run(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_verify_smallest_fiber_dimension_runs(tmp_path):
    out = tmp_path / "q2.json"
    assert run(["verify", "--q", "2", "--trials", "1", "--out", str(out), "--quiet"]) == 0
    assert load(out)["config"]["q"] == [2]


def test_one_transverse_tensor_per_evaluation(monkeypatch):
    # verify builds one tensor for the master identity and one for the
    # term-vs-action check per instance (6 instances per trial); hopf with
    # unit weights builds one per point
    real = curvature.transverse_riemann
    builds = []

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    for module in (curvature, oneill, cli):
        monkeypatch.setattr(module, "transverse_riemann", counting)
    assert run(["verify", "--trials", "2", "--quiet"]) == 0
    assert len(builds) == 24
    builds.clear()
    assert run(["hopf", "--m", "3", "--samples", "2", "--quiet"]) == 0
    assert len(builds) == 2


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_report_refuses_non_finite_floats(value):
    with pytest.raises(ValueError, match="non-finite"):
        dumps_report({"summary": {"gap": [1.0, value]}})


def test_report_floats_have_17_significant_digits(tmp_path):
    out = tmp_path / "fmt.json"
    run(["bounds", "--theorem", "sandwich", "--m", "3", "--samples", "1",
         "--seed", "29", "--out", str(out), "--quiet"])
    text = out.read_text()
    # a third of machine epsilon around 24 still round-trips at 17 digits
    rep = load(out)
    scal = rep["checks"][1]["lhs"]
    assert format(scal, ".17g") in text


def test_cli_prints_human_summary(capsys, tmp_path):
    run(["hopf", "--m", "2", "--samples", "2", "--seed", "31",
         "--out", str(tmp_path / "h.json")])
    msg = capsys.readouterr().out
    assert "checks:" in msg and "failed: 0" in msg
