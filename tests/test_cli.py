"""Command-line driver: schema, determinism, exit codes."""

import json

import numpy as np
import pytest

import folcurv.cli as cli
from folcurv import curvature, exterior, hopf, oneill
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


def test_hopf_unit_weights_m20(tmp_path):
    # q = 38: the Kahler parallelism check applies the Bochner action to a
    # 2-form in 703 coordinates, the size that needs a planned contraction
    out = tmp_path / "hopf20.json"
    assert run(["hopf", "--m", "20", "--samples", "1", "--seed", "0",
                "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    names = {c["name"] for c in rep["checks"]}
    assert {"hopf.kahler_parallel.point0",
            "hopf.kahler_curvature_pairing.point0"} <= names
    assert all(c["pass"] for c in rep["checks"])


def test_hopf_unit_weights_m30(tmp_path):
    # q = 58: the structured action certifies the Kahler form in 1653
    # coordinates, and the transverse scalar is summed from the structure
    out = tmp_path / "hopf30.json"
    assert run(["hopf", "--m", "30", "--samples", "1", "--seed", "0",
                "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    names = {c["name"] for c in rep["checks"]}
    assert {"hopf.transverse_scalar.point0", "hopf.kahler_parallel.point0",
            "hopf.kahler_curvature_pairing.point0"} <= names
    assert all(c["pass"] for c in rep["checks"])
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
    (["verify", "--q", "0", "--trials", "1"], "--q must be in [2, 16]"),
    (["verify", "--q", "1", "--trials", "1"], "--q must be in [2, 16]"),
    (["verify", "--q", "-1", "--trials", "1"], "--q must be in [2, 16]"),
    (["verify", "--q", "17", "--trials", "1"], "--q must be in [2, 16]"),
    (["verify", "--q", "2", "--trials", "1", "--tol", "nan"], "--tol must be finite and > 0"),
    (["verify", "--q", "2", "--trials", "1", "--tol", "inf"], "--tol must be finite and > 0"),
    (["verify", "--q", "2", "--trials", "1", "--tol", "0"], "--tol must be finite and > 0"),
    (["verify", "--q", "2", "--trials", "1", "--tol=-1e-10"],
     "--tol must be finite and > 0"),
    (["bounds", "--theorem", "sandwich", "--m", "3", "--tol", "nan"],
     "--tol must be finite and > 0"),
    (["bounds", "--theorem", "3.1", "--m", "3", "--p", "2", "--tol=-inf"],
     "--tol must be finite and > 0"),
    (["bounds", "--theorem", "4.1", "--m", "3", "--p", "2", "--tol", "0"],
     "--tol must be finite and > 0"),
]


@pytest.mark.parametrize("argv,message", REFUSED_RUNS,
                         ids=[f"argv{i}" for i in range(len(REFUSED_RUNS))])
def test_empty_runs_are_refused(capsys, argv, message):
    # a run over no trials or samples would pass vacuously or fail midway,
    # and a fiber dimension out of range would do either or exhaust memory
    assert run(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "1", "--tol", "nan"],
    ["bounds", "--theorem", "3.1", "--m", "3", "--p", "2", "--tol", "0"],
    ["bounds", "--theorem", "3.2", "--m", "3", "--p", "3"],
    ["bounds", "--theorem", "4.1", "--m", "3"],
])
def test_bad_tol_is_refused_before_any_instance(capsys, monkeypatch, argv):
    # one error line and exit 2, before a form, an instance or a point is
    # drawn; so is a bounds degree outside the hypothesis or missing
    def drawn(*args, **kwargs):
        raise AssertionError("an instance was drawn before --tol was checked")

    for name in ("random_form", "random_trials", "sample_point"):
        monkeypatch.setattr(cli, name, drawn)
    assert run(argv + ["--quiet"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["hopf", "--m", "3", "--samples", "2"],
    ["bounds", "--theorem", "3.1", "--m", "3", "--p", "2", "--samples", "2"],
])
def test_bracket_route_disagreement_fails_with_one_line(capsys, monkeypatch, argv):
    # a tensor that no longer matches the pairing display must end the run
    # with a typed error and exit 1, not an assertion traceback
    real = hopf.ONeillTensor
    monkeypatch.setattr(hopf, "ONeillTensor", lambda a: real(2.0 * a))
    model = hopf.WeightedHopfModel(3, (1.0, 1.0, 1.0))
    pt = hopf.sample_point(model, np.random.default_rng(0))
    with pytest.raises(hopf.BracketRouteError, match="routes disagree"):
        hopf.oneill_from_brackets(model, pt)
    assert run(argv + ["--quiet"]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "routes disagree" in err and "Traceback" not in err


def test_verify_smallest_fiber_dimension_runs(tmp_path):
    out = tmp_path / "q2.json"
    assert run(["verify", "--q", "2", "--trials", "1", "--out", str(out), "--quiet"]) == 0
    assert load(out)["config"]["q"] == [2]


def test_verify_runs_past_the_old_fiber_limit(tmp_path):
    # q = 13 was refused while the dense contraction tables bounded the range
    out = tmp_path / "q13.json"
    assert run(["verify", "--q", "13", "--trials", "1", "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    assert rep["config"]["q"] == [13]
    assert rep["checks"] and all(c["pass"] for c in rep["checks"])


def test_one_transverse_tensor_per_evaluation(monkeypatch):
    # verify makes one stacked tensor per stack of trials, covering each
    # instance once (6 instances per trial) for the master identity and the
    # term-vs-action check together; hopf with unit weights makes one per
    # point, and its checks read the structure (1, A) only, never building
    # the components
    real = curvature.transverse_riemann
    tensors = []

    def counting(*args, **kwargs):
        Rt = real(*args, **kwargs)
        tensors.append(Rt)
        return Rt

    for module in (curvature, oneill, cli):
        monkeypatch.setattr(module, "transverse_riemann", counting)
    assert run(["verify", "--trials", "7", "--quiet"]) == 0
    a = [Rt.structure[1] for Rt in tensors]
    assert sum(len(x) if x.ndim == 4 else 1 for x in a) == 6 * 7
    assert len(tensors) < 6 * 7
    tensors.clear()
    assert run(["hopf", "--m", "3", "--samples", "2", "--quiet"]) == 0
    assert len(tensors) == 2
    assert all(Rt._components is None for Rt in tensors)


def test_one_dual_evaluation_per_point(monkeypatch):
    # per point the frame seeds the point once and evaluates the q horizontal
    # fields together; X is linear and needs no dual pass
    seeds = []
    real_seed = hopf.seed_point

    def counting_seed(*args):
        seeds.append(1)
        return real_seed(*args)

    monkeypatch.setattr(hopf, "seed_point", counting_seed)
    for weights in ([], ["--theta", "1,1,0.5"]):
        seeds.clear()
        assert run(["hopf", "--m", "3", "--samples", "2", "--quiet"] + weights) == 0
        assert len(seeds) == 2          # 1 per point


def test_mean_curvature_takes_no_dual_pass(monkeypatch):
    # D_V V = i theta V / |X| in closed form, so no point is seeded
    def seeded(*args):
        raise AssertionError("mean_curvature seeded a dual pass")

    monkeypatch.setattr(hopf, "seed_point", seeded)
    for theta in ((1.0, 1.0, 0.5), (1.0, 1.0, 1.0)):
        model = hopf.WeightedHopfModel(3, theta)
        hopf.mean_curvature(model, hopf.sample_point(model, 0))


def test_sample_streams_are_spawned_lazily(capsys, monkeypatch):
    # 200000 samples would hold about 74 MB of spawned seed sequences ahead of
    # the first point; spawning one child per point holds none
    import tracemalloc

    def first_point(*args, **kwargs):
        raise hopf.DegeneratePointError("stop at the first point")

    monkeypatch.setattr(cli, "sample_point", first_point)
    for argv in (["hopf", "--m", "3", "--theta", "1,1,0.5"],
                 ["bounds", "--theorem", "3.1", "--m", "3", "--p", "2"]):
        tracemalloc.start()
        try:
            assert run(argv + ["--samples", "200000", "--quiet"]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (argv[0], peak)
        assert "stop at the first point" in capsys.readouterr().err


def test_lazy_streams_match_one_eager_spawn():
    children = np.random.SeedSequence(7).spawn(5)
    eager = [np.random.default_rng(c).standard_normal(3) for c in children]
    lazy = [rng.standard_normal(3) for rng in cli._point_streams(7, 5)]
    assert np.array_equal(np.array(eager), np.array(lazy))


DENSE_TABLES = (exterior.wedge_matrices, exterior.interior_matrices)


@pytest.fixture
def dense_builds(monkeypatch):
    """The list that gains the shape of every q^4 curvature array a run
    builds: each one, given or built from a structure, is checked once.  The
    caches of the dense frame wedge and contraction tables start empty, so
    ``dense_tables_read()`` tells whether a run asked for one."""
    for table in DENSE_TABLES:
        table.cache_clear()
    real = curvature._checked
    builds = []

    def counting(*args, **kwargs):
        R = real(*args, **kwargs)
        builds.append(R.shape)
        return R

    monkeypatch.setattr(curvature, "_checked", counting)
    return builds


def dense_tables_read() -> bool:
    """Whether a dense table was asked for since ``dense_builds`` cleared them."""
    return any(t.cache_info() != (0, 0, None, 0) for t in DENSE_TABLES)


def test_weighted_hopf_builds_no_ambient_curvature(dense_builds):
    # no hopf run builds a q^4 curvature array, with or without unit weights:
    # the unit-weight checks read the structure (1, A) of the transverse tensor;
    # no command reads a dense frame table, since every contraction gathers
    # through the signed index rows of the wedge table
    assert run(["hopf", "--m", "3", "--theta", "1,1,0.5", "--samples", "2", "--quiet"]) == 0
    assert dense_builds == []
    assert run(["hopf", "--m", "3", "--samples", "2", "--quiet"]) == 0
    assert dense_builds == []
    assert run(["verify", "--q", "4", "--trials", "2", "--quiet"]) == 0
    assert dense_builds
    assert not dense_tables_read()


def test_verify_builds_no_space_form_components(dense_builds):
    # one stack per p at one trial, each building the dense R_t and R_K it
    # contracts; the ambient space form is read from its curvature c
    assert run(["verify", "--q", "4", "--trials", "1", "--quiet"]) == 0
    assert dense_builds == [(1, 4, 4, 4, 4)] * 6


BOUND_ROWS = {
    # theorem: check names at each point
    "3.1": ["thm3.1"],
    "3.2": ["thm3.2"],
    "4.1": ["thm4.1"],
    "sandwich": ["sandwich.lower", "sandwich.upper"],
    "cor3.1": ["cor3.1"],
}


def test_bound_rows_cover_the_theorem_table():
    assert set(BOUND_ROWS) == set(cli.BOUNDS)


@pytest.mark.parametrize("theorem", list(BOUND_ROWS))
def test_every_bound_row_runs(tmp_path, dense_builds, theorem):
    # one emission path for every row; no row builds a q^4 curvature array
    # or reads a dense frame table: 4.1 and sandwich sum Scal_t from the
    # structure, cor3.1 reads the S1 of the unit sphere from its curvature
    ids = BOUND_ROWS[theorem]
    out = tmp_path / "b.json"
    assert run(["bounds", "--theorem", theorem, "--m", "3", "--p", "2", "--samples", "2",
                "--trials", "20", "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    assert [c["name"] for c in rep["checks"]] == [
        f"bounds.{i}.point{k}" for k in range(2) for i in ids]
    assert all(c["pass"] for c in rep["checks"])
    assert len(rep["summary"]["gap"]["per_check"]) == 2 * len(ids)
    assert dense_builds == []
    assert not dense_tables_read()


@pytest.mark.parametrize("argv", [
    ["hopf", "--m", "30"],
    ["bounds", "--theorem", "4.1", "--m", "30", "--p", "2"],
    ["bounds", "--theorem", "sandwich", "--m", "30"],
    ["bounds", "--theorem", "cor3.1", "--m", "30"],
])
def test_unit_sphere_runs_allocate_far_less_than_one_q4_array(tmp_path, argv):
    # at q = 58 one q^4 array of floats takes 86 MiB; the whole run stays
    # under an eighth of it (about 4 MiB traced)
    import tracemalloc

    tracemalloc.start()
    try:
        assert run(argv + ["--samples", "1", "--out", str(tmp_path / "r.json"),
                           "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 58**4 / 8, peak


@pytest.mark.parametrize("theta", ["1,0.2,0.1", "1,0.5,0.1", "1,0.3,0.3"])
def test_cor31_passes_by_its_structural_margin(tmp_path, theta):
    # in degree 1 the scanned E(v) = -Ric(v, v) - 2V of the unit sphere is at
    # most -(q-1), below the threshold -(q-1)/2, at every point and weight
    out = tmp_path / "c.json"
    assert run(["bounds", "--theorem", "cor3.1", "--m", "3", "--theta", theta,
                "--samples", "3", "--trials", "200", "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    q = 4
    assert len(rep["checks"]) == 3 and rep["findings"] == []
    for c in rep["checks"]:
        assert c["pass"] and c["lhs"] <= -(q - 1) + c["tol"]


def test_cor31_reads_tol(tmp_path):
    out = tmp_path / "c.json"
    assert run(["bounds", "--theorem", "cor3.1", "--m", "3", "--samples", "1",
                "--trials", "20", "--tol", "1e-3", "--out", str(out), "--quiet"]) == 0
    assert [c["tol"] for c in load(out)["checks"]] == [1e-3]


def test_bound_findings_name_their_point(tmp_path, monkeypatch):
    out = tmp_path / "f.json"
    assert run(["bounds", "--theorem", "3.1", "--m", "4", "--p", "2",
                "--theta", "1,0.9,0.6,0.3", "--samples", "3", "--seed", "0",
                "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    assert rep["findings"]
    for f in rep["findings"]:
        assert f["kind"] == "negative-gap"
        check = rep["checks"][f["values"]["point"]]
        assert not check["pass"]
        assert list(f["values"]) == ["point", "check", "inputs", "note"]
        point = f["values"]["point"]
        assert check["name"] == f["values"]["check"] == f"bounds.thm3.1.point{point}"
    # an uncertified obstruction: a scan maximum above -(q-1)/2 at every point
    monkeypatch.setattr(oneill, "cor31_scan", lambda RM, A, trials, rng: 0.0)
    assert run(["bounds", "--theorem", "cor3.1", "--m", "3", "--samples", "2",
                "--trials", "5", "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    assert [f["kind"] for f in rep["findings"]] == ["obstruction-not-certified"] * 2
    checks = {c["name"]: c for c in rep["checks"]}
    assert [(f["values"]["point"], checks[f["values"]["check"]]["lhs"],
             checks[f["values"]["check"]]["rhs"])
            for f in rep["findings"]] == [(0, 0.0, -1.5), (1, 0.0, -1.5)]


class Reached(Exception):
    """Raised by a monkeypatched step to show a run got that far."""


@pytest.mark.parametrize("argv", [
    ["hopf", "--m", "100"],
    ["hopf", "--m", "40"],
    ["bounds", "--theorem", "4.1", "--m", "40", "--p", "2"],
    ["bounds", "--theorem", "sandwich", "--m", "40"],
    ["bounds", "--theorem", "cor3.1", "--m", "40"],
])
def test_oversized_dense_curvature_is_refused(tmp_path, dense_builds, argv):
    # These unit-sphere runs at q = 2m - 2 > 76 were once refused, because
    # their dense q^4 ambient curvature would pass 256 MiB.  No such array is
    # built any more, so they report, every check passing; hopf --m 100 also
    # needs the margin of sample_point to shrink with m.
    out = tmp_path / "big.json"
    assert run(argv + ["--samples", "1", "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    assert rep["checks"] and all(c["pass"] for c in rep["checks"])
    assert dense_builds == []


@pytest.mark.parametrize("argv", [
    ["hopf", "--m", "129"],
    ["hopf", "--m", "400", "--theta", ",".join(["1"] + ["0.5"] * 399)],
    ["bounds", "--theorem", "3.1", "--m", "129", "--p", "2"],
    ["bounds", "--theorem", "3.2", "--m", "129", "--p", "2"],
    ["bounds", "--theorem", "cor3.1", "--m", "129"],
])
def test_oversized_dual_pass_is_refused(capsys, monkeypatch, argv):
    # at m > 128 a gradient of the frame's dual pass, 16 (m-1) m^2 bytes,
    # would pass 32 MiB, so the run ends with one error line before any point
    def allocated(*args, **kwargs):
        raise AssertionError("a point was drawn or its dual pass begun")

    monkeypatch.setattr(cli, "sample_point", allocated)
    monkeypatch.setattr(hopf, "fields_YW", allocated)
    assert run(argv + ["--samples", "1", "--quiet"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(cli.DUAL_PASS_BYTES) in lines[0]


@pytest.mark.parametrize("argv", [
    ["bounds", "--theorem", "cor3.1", "--m", "3", "--trials", "1000000000000000"],
    ["bounds", "--theorem", "cor3.1", "--m", "128", "--trials", "16514"],
])
def test_oversized_scan_is_refused(capsys, monkeypatch, argv):
    # cor3.1 draws a (trials, q) array per point; over cli.SCAN_BYTES the run
    # ends with one error line before any point, not a memory error
    def drawn(*args, **kwargs):
        raise AssertionError("a point was drawn before --trials was checked")

    monkeypatch.setattr(cli, "sample_point", drawn)
    assert run(argv + ["--samples", "1", "--quiet"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(cli.SCAN_BYTES) in lines[0]


def test_unwritable_out_is_an_input_error(capsys, tmp_path):
    # the report cannot be written, so nothing is printed as if it were
    out = tmp_path / "missing" / "x.json"
    assert run(["hopf", "--m", "2", "--samples", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(out) in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("argv,step", [
    (["bounds", "--theorem", "cor3.1", "--m", "40"], "space_form"),  # q = 78 > 76
    (["hopf", "--m", "40", "--theta", ",".join(["1"] + ["0.5"] * 39)], "sample_point"),
    (["bounds", "--theorem", "3.1", "--m", "40", "--p", "2"], "sample_point"),
    (["bounds", "--theorem", "3.2", "--m", "40", "--p", "2"], "sample_point"),
    (["hopf", "--m", "128"], "sample_point"),  # the largest m the dual pass allows
    (["bounds", "--theorem", "cor3.1", "--m", "128"], "sample_point"),  # 1000 trials
])
def test_runs_without_a_large_dense_array_are_not_refused(monkeypatch, argv, step):
    def reached(*args, **kwargs):
        raise Reached(step)

    monkeypatch.setattr(cli, step, reached)
    with pytest.raises(Reached):
        run(argv + ["--samples", "1", "--quiet"])


def test_hopf_takes_no_tol(capsys):
    # hopf checks fixed tolerances, so --tol is an unrecognized argument
    with pytest.raises(SystemExit) as exc:
        run(["hopf", "--m", "2", "--samples", "1", "--tol", "nan", "--quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --tol nan" in err and "Traceback" not in err


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
