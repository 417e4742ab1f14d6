"""Command-line driver: schema, determinism, exit codes."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import folcurv.cli as cli
from folcurv import curvature, dual, exterior, hopf, oneill
from folcurv.report import dumps_report

from oracles import exterior_maxima_loop


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


@pytest.mark.parametrize("rounds", [1, 10, 200])
@pytest.mark.parametrize("q", range(2, 7))
def test_stacked_exterior_checks_are_the_one_at_a_time_loop(q, rounds):
    # the same draws in the same order, evaluated one stack per degree and
    # per degree pair: the five maxima and the generator's end state agree
    stacked, loop = np.random.default_rng(q + rounds), np.random.default_rng(q + rounds)
    got = cli._exterior_maxima(stacked, q, rounds)
    want = exterior_maxima_loop(loop, q, rounds)
    assert list(got) == list(want)
    for name, r in want.items():
        assert abs(got[name] - r) <= 1e-15, name
    assert stacked.bit_generator.state == loop.bit_generator.state


def test_exterior_rounds_are_drawn_a_chunk_at_a_time(monkeypatch):
    # a chunk of three rounds at q = 4: the first hodge call takes one chunk,
    # not every round, and the maxima and the generator's end state are the loop's
    q, rounds = 4, 10
    monkeypatch.setattr(cli, "CHUNK_BYTES", 3 * 8 * 2**q)
    stacks, real = [], cli.hodge

    def hodge(a):
        stacks.append(a.stack)
        return real(a)

    monkeypatch.setattr(cli, "hodge", hodge)
    chunked, loop = np.random.default_rng(11), np.random.default_rng(11)
    got = cli._exterior_maxima(chunked, q, rounds)
    want = exterior_maxima_loop(loop, q, rounds)
    assert stacks[0] == (3,)
    assert {s[0] for s in stacks} == {3, 1}
    assert list(got) == list(want)
    for name, r in want.items():
        assert abs(got[name] - r) <= 1e-15, name
    assert chunked.bit_generator.state == loop.bit_generator.state


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
                "--seed", "23", "--out", str(out2), "--quiet"]) == 0
    rep2 = load(out2)
    assert all(c["pass"] for c in rep2["checks"])
    assert all(c["rhs"] <= c["lhs"] + 1e-9 for c in rep2["checks"])


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


def _refusal_id(argv, message) -> str:
    """The command, the flag the refusal names and its value: verify-trials0."""
    flag = message.split()[0]
    i = next(i for i, arg in enumerate(argv) if arg.partition("=")[0] == flag)
    value = argv[i].partition("=")[2] or argv[i + 1]
    return f"{argv[0]}-{flag[2:]}{value}"


@pytest.mark.parametrize("argv,message", REFUSED_RUNS,
                         ids=[_refusal_id(*case) for case in REFUSED_RUNS])
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
    # chunk of points and takes one Bochner action on it, and its checks
    # read the structure (1, A) only, never building the components
    real, real_action = curvature.transverse_riemann, curvature.curvature_action_on_form
    tensors, actions = [], []

    def counting(*args, **kwargs):
        Rt = real(*args, **kwargs)
        tensors.append(Rt)
        return Rt

    def counting_action(R, w):
        actions.append(w.stack)
        return real_action(R, w)

    for module in (curvature, oneill, cli):
        monkeypatch.setattr(module, "transverse_riemann", counting)
    monkeypatch.setattr(cli, "curvature_action_on_form", counting_action)
    assert run(["verify", "--trials", "7", "--quiet"]) == 0
    a = [Rt.structure[1].a for Rt in tensors]
    assert sum(len(x) if x.ndim == 4 else 1 for x in a) == 6 * 7
    assert len(tensors) < 6 * 7
    tensors.clear()
    actions.clear()
    assert run(["hopf", "--m", "3", "--samples", "2", "--quiet"]) == 0
    assert len(tensors) == 1 and tensors[0].structure[1].a.shape[0] == 2
    assert actions == [(2,)]
    assert all(Rt._components is None for Rt in tensors)
    tensors.clear()
    actions.clear()
    monkeypatch.setattr(cli, "CHUNK_BYTES", 1)
    assert run(["hopf", "--m", "3", "--samples", "2", "--quiet"]) == 0
    assert len(tensors) == 2 and actions == [(1,), (1,)]   # chunks of one point


def test_one_fields_pass_per_chunk(monkeypatch):
    # the q horizontal fields of all the points of a chunk, and their pairing
    # gradients, come from one fields_YW call; X is linear and takes none
    passes = []
    real_fields = hopf.fields_YW

    def counting_fields(model, point, x):
        passes.append(len(point.z))
        return real_fields(model, point, x)

    monkeypatch.setattr(hopf, "fields_YW", counting_fields)
    for weights in ([], ["--theta", "1,1,0.5"]):
        passes.clear()
        assert run(["hopf", "--m", "3", "--samples", "2", "--quiet"] + weights) == 0
        assert passes == [2]            # one chunk of both points
    monkeypatch.setattr(cli, "CHUNK_BYTES", 1)
    passes.clear()
    assert run(["hopf", "--m", "3", "--samples", "2", "--quiet"]) == 0
    assert passes == [1, 1]             # chunks of one point


THETA_16 = ",".join(f"{1 - 0.05 * i:.2f}" for i in range(16))


def chunk_size(model):
    """The number of points of a full chunk of ``cli._point_chunks``."""
    return len(next(cli._point_chunks(model, 0, 10**6))[1].z)


def per_point_values(rep):
    """Every check (name, pass, lhs, rhs), every finding and every per-point
    summary list of a hopf report."""
    return ([(c["name"], c["pass"], c["lhs"], c["rhs"]) for c in rep["checks"]],
            rep["findings"],
            {k: v["per_point"] for k, v in rep["summary"].items() if isinstance(v, dict)})


@pytest.mark.parametrize("argv", [["--m", "10"], ["--m", "16", "--theta", THETA_16]])
def test_chunks_give_the_one_point_values(tmp_path, monkeypatch, argv):
    # one sample short of a full chunk, a full chunk, and one more: each run
    # reports what chunks of one point report (the benchmark's two hopf
    # configurations: 22 points a chunk at m = 10, 8 at m = 16)
    size = chunk_size(cli._model(cli.build_parser().parse_args(["hopf", *argv])))
    assert size > 1
    out = tmp_path / "h.json"
    for samples in (size - 1, size, size + 1):
        reports = []
        for nbytes in (cli.CHUNK_BYTES, 1):
            monkeypatch.setattr(cli, "CHUNK_BYTES", nbytes)
            assert run(["hopf", *argv, "--samples", str(samples), "--seed", "3",
                        "--out", str(out), "--quiet"]) == 0
            reports.append(per_point_values(load(out)))
        assert reports[0] == reports[1], samples


@pytest.mark.parametrize("argv", [
    ["--theorem", "4.1", "--m", "10", "--p", "2"],
    ["--theorem", "4.1", "--m", "16", "--theta", THETA_16, "--p", "3"],
    ["--theorem", "cor3.1", "--m", "10"],
    ["--theorem", "cor3.1", "--m", "16", "--theta", THETA_16],
])
def test_bound_chunks_give_the_one_point_values(tmp_path, monkeypatch, argv):
    # a row is evaluated once a chunk: 4.1 reads Scal_t off one stacked
    # transverse tensor, cor3.1 takes one stacked eigvalsh; around a full
    # chunk, each report is the report of chunks of one point
    size = chunk_size(cli._model(cli.build_parser().parse_args(["bounds", *argv])))
    assert size > 1
    out = tmp_path / "b.json"
    for samples in (size - 1, size, size + 1):
        reports = []
        for nbytes in (cli.CHUNK_BYTES, 1):
            monkeypatch.setattr(cli, "CHUNK_BYTES", nbytes)
            assert run(["bounds", *argv, "--samples", str(samples), "--seed", "3",
                        "--out", str(out), "--quiet"]) == 0
            rep = load(out)
            del rep["summary"]["elapsed_seconds"]
            reports.append(rep)
        assert reports[0] == reports[1], samples


@pytest.mark.parametrize("argv", [["hopf", "--m", "16", "--theta", THETA_16],
                                  ["bounds", "--theorem", "3.1", "--m", "16", "--p", "2"]])
def test_a_degenerate_point_mid_chunk_fails_as_one_at_a_time(capsys, monkeypatch, argv):
    # the third of six points, in the middle of one chunk, has a coordinate
    # modulus below the margin: the run ends with the line that chunks of
    # one point end with
    real = cli.sample_point
    chunks = []

    def sampled(model, rngs):
        pts = real(model, rngs)
        k = 2 - sum(chunks)            # the run's third point, if in this chunk
        chunks.append(len(rngs))
        if 0 <= k < len(rngs):
            z = pts.z.copy()
            z[k, 1] *= 0.1 * np.sqrt(hopf.degeneracy_margin(model.m)) / abs(z[k, 1])
            z[k] /= np.linalg.norm(z[k])
            pts = hopf.SpherePoint(z)
        return pts

    monkeypatch.setattr(cli, "sample_point", sampled)
    errors = []
    for nbytes, drawn in ((cli.CHUNK_BYTES, [6]), (1, [1, 1, 1])):
        monkeypatch.setattr(cli, "CHUNK_BYTES", nbytes)
        chunks.clear()
        assert run(argv + ["--samples", "6", "--quiet"]) == 1
        assert chunks == drawn
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        f"sampling failure: coordinate modulus below margin {hopf.degeneracy_margin(16)}\n")


def test_bracket_route_as_closed_form_drops_every_finding(tmp_path, monkeypatch):
    # the benchmark self-test's probe reads |A|^2 off the tensor of a stack,
    # one value a point; in place of the printed closed form it leaves no
    # closed-form-discrepancy finding, where the real one finds one a point
    argv = ["hopf", "--m", "16", "--theta", THETA_16, "--samples", "10", "--quiet"]
    out = tmp_path / "h.json"
    assert run(argv + ["--out", str(out)]) == 0
    assert [f["values"]["point"] for f in load(out)["findings"]] == list(range(10))
    monkeypatch.setattr(cli, "oneill_closed_form",
                        lambda model, pt: cli.oneill_from_brackets(model, pt)[0].norm_sq)
    assert run(argv + ["--out", str(out)]) == 0
    assert load(out)["findings"] == []


def test_no_command_builds_a_dual(monkeypatch):
    # the point pass takes u_j in closed form and D_V V = i theta V / |X| is
    # closed too, so no hopf run, unit or weighted, and no bounds row builds
    # a dual number
    def built(*args):
        raise AssertionError("a command built a Dual")

    monkeypatch.setattr(dual.Dual, "__init__", built)
    for theta in ([], ["--theta", "1,1,0.5"]):
        assert run(["hopf", "--m", "3", "--samples", "2", "--quiet"] + theta) == 0
    for theorem in BOUND_ROWS:
        assert run(["bounds", "--theorem", theorem, "--m", "3", "--p", "2",
                    "--samples", "2", "--quiet"]) == 0


def test_sample_streams_are_spawned_lazily(capsys, monkeypatch):
    # 200000 samples would hold about 74 MB of spawned seed sequences ahead of
    # the first point; spawning one child per point as its chunk is drawn
    # holds one chunk of streams (341 at m = 3) when the first point is drawn
    import tracemalloc

    size = chunk_size(hopf.WeightedHopfModel(3, (1.0, 1.0, 1.0)))
    given = []

    def first_point(model, rngs):
        given.append(len(rngs))
        raise hopf.DegeneratePointError("stop at the first point")

    monkeypatch.setattr(cli, "sample_point", first_point)
    for argv in (["hopf", "--m", "3", "--theta", "1,1,0.5"],
                 ["bounds", "--theorem", "3.1", "--m", "3", "--p", "2"]):
        given.clear()
        tracemalloc.start()
        try:
            assert run(argv + ["--samples", "200000", "--quiet"]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert given == [size]
        assert peak < 4 * 2**20, (argv[0], peak)
        assert "stop at the first point" in capsys.readouterr().err


def test_lazy_streams_match_one_eager_spawn(monkeypatch):
    # chunks of two points: five points span two chunk boundaries, and each
    # chunk's spawn continues the children where the last one stopped
    model = hopf.WeightedHopfModel(3, (1.0, 1.0, 1.0))
    monkeypatch.setattr(cli, "CHUNK_BYTES", 2 * 8 * 8 * model.q * 2 * model.m)
    monkeypatch.setattr(cli, "sample_point",
                        lambda model, rngs: [rng.standard_normal(3) for rng in rngs])
    children = np.random.SeedSequence(7).spawn(5)
    eager = [np.random.default_rng(c).standard_normal(3) for c in children]
    chunks = list(cli._point_chunks(model, 7, 5))
    assert [(k0, len(pts)) for k0, pts in chunks] == [(0, 2), (2, 2), (4, 1)]
    lazy = [x for _, pts in chunks for x in pts]
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
                "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    assert [c["name"] for c in rep["checks"]] == [
        f"bounds.{i}.point{k}" for k in range(2) for i in ids]
    assert all(c["pass"] for c in rep["checks"])
    assert len(rep["summary"]["gap"]["per_check"]) == 2 * len(ids)
    assert dense_builds == []
    assert not dense_tables_read()


@pytest.mark.parametrize("theorem", list(BOUND_ROWS))
def test_every_bound_row_keeps_one_pass_rule(tmp_path, monkeypatch, theorem):
    # every row reads lhs >= rhs: gap = lhs - rhs, passing when gap >= -tol,
    # and the summary gaps are the check gaps
    argv = ["bounds", "--theorem", theorem, "--m", "3", "--p", "2", "--samples", "2",
            "--quiet", "--out", str(tmp_path / "b.json")]
    assert run(argv) == 0
    rep = load(tmp_path / "b.json")
    for c in rep["checks"]:
        assert c["gap"] == c["lhs"] - c["rhs"]
        assert c["pass"] == (c["gap"] >= -c["tol"])
    assert rep["summary"]["gap"]["per_check"] == [c["gap"] for c in rep["checks"]]
    # an lhs one below its rhs violates every check of the row
    row = cli.BOUNDS[theorem]

    def violated(c, A):
        return {name: (rhs - 1.0, rhs) for name, (_, rhs) in row.evaluate(c, A).items()}

    monkeypatch.setitem(cli.BOUNDS, theorem, row._replace(evaluate=violated))
    assert run(argv) == 0
    rep = load(tmp_path / "b.json")
    kind = "obstruction-not-certified" if theorem == "cor3.1" else "negative-gap"
    assert not any(c["pass"] for c in rep["checks"])
    assert len(rep["findings"]) == len(rep["checks"]) == 2 * len(BOUND_ROWS[theorem])
    for f, c in zip(rep["findings"], rep["checks"]):
        assert f["kind"] == kind
        assert list(f["values"]) == ["point", "check", "oneill_norm_sq"]
        assert f["values"]["check"] == c["name"]
        assert c["name"].endswith(f".point{f['values']['point']}")
        assert f["values"]["oneill_norm_sq"] == pytest.approx(4.0, abs=1e-9)  # 2(m-1)


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
    # in degree 1 the maximum -(q-1) - 2 lambda_min(G) of E(v) = -Ric(v, v) - 2V
    # on the unit sphere is at most -(q-1), below the threshold -(q-1)/2, at
    # every point and weight
    out = tmp_path / "c.json"
    assert run(["bounds", "--theorem", "cor3.1", "--m", "3", "--theta", theta,
                "--samples", "3", "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    q = 4
    assert len(rep["checks"]) == 3 and rep["findings"] == []
    for c in rep["checks"]:
        assert c["pass"] and c["rhs"] <= -(q - 1) + c["tol"]


def test_cor31_reads_tol(tmp_path):
    out = tmp_path / "c.json"
    assert run(["bounds", "--theorem", "cor3.1", "--m", "3", "--samples", "1",
                "--tol", "1e-3", "--out", str(out), "--quiet"]) == 0
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
        assert list(f["values"]) == ["point", "check", "oneill_norm_sq"]
        point = f["values"]["point"]
        assert check["name"] == f["values"]["check"] == f"bounds.thm3.1.point{point}"
    # an uncertified obstruction: a maximum above -(q-1)/2 at every point
    monkeypatch.setattr(cli, "cor31_max", lambda RM, A: 0.0)
    assert run(["bounds", "--theorem", "cor3.1", "--m", "3", "--samples", "2",
                "--out", str(out), "--quiet"]) == 0
    rep = load(out)
    assert [f["kind"] for f in rep["findings"]] == ["obstruction-not-certified"] * 2
    checks = {c["name"]: c for c in rep["checks"]}
    assert [(f["values"]["point"], checks[f["values"]["check"]]["lhs"],
             checks[f["values"]["check"]]["rhs"])
            for f in rep["findings"]] == [(0, -1.5, 0.0), (1, -1.5, 0.0)]


def test_cor31_rhs_is_the_exact_maximum(tmp_path, monkeypatch):
    # the rhs at each point is cor31_max at the point drawn from that point's
    # child of one eager spawn, over chunks of two points
    out = tmp_path / "c.json"
    argv = ["bounds", "--theorem", "cor3.1", "--m", "4", "--theta", "1,0.9,0.6,0.3",
            "--samples", "3", "--seed", "5", "--out", str(out), "--quiet"]
    model = hopf.WeightedHopfModel(4, (1.0, 0.9, 0.6, 0.3))
    monkeypatch.setattr(cli, "CHUNK_BYTES", 2 * 8 * 8 * model.q * 2 * model.m)
    assert chunk_size(model) == 2
    assert run(argv) == 0
    expect = []
    for child in np.random.SeedSequence(5).spawn(3):
        point = hopf.sample_point(model, np.random.default_rng(child))
        A, _ = hopf.oneill_from_brackets(model, point)
        expect.append(oneill.cor31_max(curvature.space_form(model.q, 1.0), A))
    assert [c["rhs"] for c in load(out)["checks"]] == expect


def test_bounds_takes_no_trials(capsys):
    # cor3.1 reads its maximum exactly, so --trials is an unrecognized argument
    with pytest.raises(SystemExit) as exc:
        run(["bounds", "--theorem", "cor3.1", "--m", "3", "--trials", "5", "--quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --trials 5" in err and "Traceback" not in err


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
    ["hopf", "--m", "513"],
    ["hopf", "--m", "1000", "--theta", ",".join(["1"] + ["0.5"] * 999)],
    ["bounds", "--theorem", "3.1", "--m", "513", "--p", "2"],
    ["bounds", "--theorem", "3.2", "--m", "513", "--p", "2"],
    ["bounds", "--theorem", "cor3.1", "--m", "513"],
])
def test_oversized_dual_pass_is_refused(capsys, monkeypatch, argv):
    # at m > 512 the largest array of a point, the frame's (2m-1) x (2m-1)
    # Gram matrix of floats, would pass 8 MiB, so the run ends with one error
    # line before any point
    def allocated(*args, **kwargs):
        raise AssertionError("a point was drawn or its dual pass begun")

    monkeypatch.setattr(cli, "sample_point", allocated)
    monkeypatch.setattr(hopf, "fields_YW", allocated)
    assert run(argv + ["--samples", "1", "--quiet"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert str(cli.FRAME_GRAM_BYTES) in lines[0]


@pytest.mark.parametrize("argv", [["hopf", "--m", "128"],
                                  ["bounds", "--theorem", "4.1", "--m", "128", "--p", "2"]])
def test_a_large_point_holds_no_jacobian_stack(tmp_path, argv):
    # the point pass differentiates only the pairings <Z_j, X>: at m = 128 a
    # run peaks far below the 133 MB of a (q, 2m, 2m) Jacobian stack
    import tracemalloc

    out = tmp_path / "big.json"
    tracemalloc.start()
    try:
        assert run(argv + ["--samples", "1", "--out", str(out), "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["pass"] for c in load(out)["checks"])
    assert peak < 254 * 256 * 256 * 8 / 4, peak


def test_unwritable_out_is_an_input_error(capsys, tmp_path):
    # the report cannot be written, so nothing is printed as if it were
    out = tmp_path / "missing" / "x.json"
    assert run(["hopf", "--m", "2", "--samples", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(out) in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["hopf", "--m", "2", "--samples", "1"],
    ["bounds", "--theorem", "cor3.1", "--m", "2", "--samples", "1"],
    ["verify", "--trials", "1"],
])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_is_refused_before_the_run(capsys, monkeypatch, tmp_path, command, where):
    # a missing directory, or an --out that is itself a directory, is refused
    # before the first point or instance is drawn
    def drawn(*args, **kwargs):
        raise AssertionError("the run began before --out was checked")

    monkeypatch.setattr(cli, "sample_point", drawn)
    monkeypatch.setattr(cli, "random_form", drawn)
    out = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path
    assert run(command + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(out) in lines[0]
    assert captured.out == ""


def test_out_probe_leaves_the_file_alone(tmp_path):
    # the probe opens nothing: a run refused after it keeps the old report
    out = tmp_path / "r.json"
    out.write_text("old report\n")
    assert run(["hopf", "--m", "2", "--samples", "0", "--out", str(out)]) == 2
    assert out.read_text() == "old report\n"


def test_out_that_fails_when_written_is_an_input_error(capsys, tmp_path):
    # a dangling link passes the directory probe; the late write still ends
    # in one error line that names the path
    out = tmp_path / "link.json"
    out.symlink_to(tmp_path / "missing" / "x.json")
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
    (["bounds", "--theorem", "cor3.1", "--m", "128"], "sample_point"),
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


def _leaves(tree, path=()):
    """Every (path, value) of a report tree below its dicts, lists and tuples."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, (list, tuple)):
        items = enumerate(tree)
    else:
        return [(path, tree)]
    return [leaf for k, v in items for leaf in _leaves(v, path + (k,))]


@pytest.mark.parametrize("argv", [
    ["bounds", "--theorem", "sandwich", "--m", "3", "--samples", "2", "--seed", "29"],
    ["hopf", "--m", "3", "--samples", "2", "--seed", "31"],
], ids=["sandwich", "hopf"])
def test_report_floats_read_back_as_themselves(monkeypatch, tmp_path, argv):
    # every float the report records reads back from the file as a float
    # with the same bits, the integer-valued ones (an rhs or gap 0.0) too
    recorded = []

    def recording(rep):
        recorded.append(rep)
        return dumps_report(rep)

    monkeypatch.setattr(cli.report_mod, "dumps_report", recording)
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out), "--quiet"]) == 0
    floats = [(path, v) for path, v in _leaves(recorded[0]) if isinstance(v, float)]
    read = dict(_leaves(load(out)))
    for path, v in floats:
        assert type(read[path]) is float and read[path].hex() == float(v).hex(), path
    fields = {path[-1] for path, _ in floats if path[0] == "checks"}
    assert fields == {"lhs", "rhs", "gap", "tol"}
    assert any(path[0] == "summary" and type(path[-1]) is int for path, _ in floats)
    assert any(v == 0.0 for path, v in floats if path[-1] in ("rhs", "gap"))


def test_report_text_reads_back_signed_zeros_and_tiny_floats():
    values = [-0.0, 0.0, 2.0, 1e-300, np.float64(0.1)]
    read = json.loads(dumps_report({"summary": {"values": values}}))["summary"]["values"]
    assert [type(v) for v in read] == [float] * len(values)
    assert [v.hex() for v in read] == [float(v).hex() for v in values]


def test_cli_prints_human_summary(capsys, tmp_path):
    run(["hopf", "--m", "2", "--samples", "2", "--seed", "31",
         "--out", str(tmp_path / "h.json")])
    msg = capsys.readouterr().out
    assert "checks:" in msg and "failed: 0" in msg


# ---------------------------------------------------------------------------
# the README's command examples
# ---------------------------------------------------------------------------


def readme_commands():
    """The ``folcurv`` lines of the command block under "Command-line
    driver", each as (argv, the gap its comment states, or None)."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command-line driver", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("folcurv "):
            command, _, comment = line.partition("#")
            gap = re.search(r"\bgap (\S+)", comment)
            commands.append((command.split()[1:], float(gap[1]) if gap else None))
    return commands


README_COMMANDS = readme_commands()


def test_readme_states_gaps():
    assert len(README_COMMANDS) >= 5
    assert sum(gap is not None for _, gap in README_COMMANDS) >= 3


@pytest.mark.parametrize("argv,gap", README_COMMANDS,
                         ids=["-".join(argv[:5]) for argv, _ in README_COMMANDS])
def test_readme_commands_run(tmp_path, argv, gap):
    # each example exits 0; a gap its comment states is every gap of its report
    out = tmp_path / "r.json"
    assert run(argv + ["--quiet", "--out", str(out)]) == 0
    if gap is not None:
        gaps = load(out)["summary"]["gap"]
        assert abs(gaps["min"] - gap) <= 1e-9 and abs(gaps["max"] - gap) <= 1e-9
