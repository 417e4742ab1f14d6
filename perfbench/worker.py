"""One measuring process of the benchmark; ``run.py`` starts it.

    worker.py --mode {setup,measure,trace} --workload W --seed S
              --seconds T --result PATH

Every mode runs the CLI in-process through ``folcurv.cli.main`` and checks
every report it writes (see ``Gate``).  ``setup`` times the import of
``folcurv.cli`` plus one smallest-size command; ``measure`` then times warm
full-size commands with tracing off; ``trace`` runs traced commands (one
from cold contraction-table caches, then warm ones), then untraced ones for
the tracing overhead.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import sys
import time

from workloads import SETUP_SIZE, WORKLOADS

_ELAPSED = re.compile(r'"elapsed_seconds": [^,}]*')


class Gate:
    """Correctness gate applied to every command the benchmark runs.

    A command passes when it exits 0, its report holds exactly the expected
    check names (all passing) and finding kinds, and its bytes, apart from
    ``elapsed_seconds``, equal those of the first report of the same size
    and seed in this process.  A command that fails as a whole counts all of
    its expected checks as failed.
    """

    def __init__(self, workload, seed: int, out_path: str):
        self.w = workload
        self.seed = seed
        self.out = out_path
        self.attempted = 0
        self.failed = 0
        self.commands = 0
        self.problems: list[str] = []
        self._reference: dict[int, str] = {}

    def run(self, cli, size: int, tracer=None):
        """Run one command; return (wall seconds, trace profile or None)."""
        argv = self.w.argv(self.seed, size) + ["--quiet", "--out", self.out]
        if os.path.exists(self.out):
            os.remove(self.out)
        if tracer is not None:
            tracer.begin_run()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
        profile = tracer.end_run() if tracer is not None else None
        self._check(rc, size)
        return wall, profile

    def _problem(self, rc: int, size: int, text: str | None, report: dict | None):
        if rc != 0:
            return f"exit code {rc}"
        if report is None:
            return "no report written"
        if [c["name"] for c in report["checks"]] != self.w.check_names(size):
            return "check names differ from the workload's"
        kinds = {f["kind"] for f in report["findings"]}
        full = size == self.w.size
        if (kinds != self.w.finding_kinds) if full else not kinds <= self.w.finding_kinds:
            return f"finding kinds {sorted(kinds)}, expected {sorted(self.w.finding_kinds)}"
        if self.w.finding_every_point:
            points = sorted(f["values"]["point"] for f in report["findings"])
            if points != list(range(size)):
                return "a point lacks its expected finding"
        stripped = _ELAPSED.sub('"elapsed_seconds": _', text)
        if stripped != self._reference.setdefault(size, stripped):
            return "report bytes differ from an earlier run of the same seed"
        return None

    def _check(self, rc: int, size: int):
        expected = len(self.w.check_names(size))
        self.attempted += expected
        self.commands += 1
        text = report = None
        if os.path.exists(self.out):
            with open(self.out) as fh:
                text = fh.read()
            report = json.loads(text)
        problem = self._problem(rc, size, text, report)
        if problem is not None:
            self.failed += expected
            self.problems.append(problem)
        else:
            self.failed += sum(not c["pass"] for c in report["checks"])

    def as_dict(self) -> dict:
        digests = {str(size): hashlib.sha256(text.encode()).hexdigest()
                   for size, text in self._reference.items()}
        return {"attempted": self.attempted, "failed": self.failed,
                "commands": self.commands, "problems": self.problems[:10],
                "digests": digests}


def _timed_loop(gate, cli, seconds: float, minimum: int, **kw) -> list:
    """Run full-size commands until ``seconds`` would be exceeded (at least
    ``minimum``); return [(wall, profile), ...]."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(gate.run(cli, gate.w.size, **kw))
        spent = time.perf_counter() - start
        if len(out) >= minimum and spent + out[-1][0] > seconds:
            return out


def _median(values) -> float:
    return float(statistics.median(values))


def per_layer(profiles, cold, units: int, overhead: float) -> dict:
    """Per-layer metrics: medians over the warm traced commands; table
    metrics from the cold one."""
    from tracer import LAYERS

    def med(fn):
        return _median([fn(p) for p in profiles])

    def per_call(p, *names):
        calls = p.calls_of(*names)
        return p.total_of(*names) / calls * 1e3 if calls else 0.0

    m = {}
    for layer in LAYERS:
        if layer == "cli":
            continue
        m[f"{layer}.calls"] = med(lambda p: p.calls[p.layer(layer)].sum())
        m[f"{layer}.self_s"] = med(lambda p: p.self_s[p.layer(layer)].sum())
        m[f"{layer}.errors"] = med(lambda p: p.errors[p.layer(layer)].sum())
    m["cli.self_s"] = med(lambda p: p.self_s[p.layer("cli")].sum())

    wedge, component = "exterior.wedge", "exterior.AlternatingForm.component"
    m["exterior.wedge.calls"] = med(lambda p: p.calls_of(wedge))
    m["exterior.wedge.self_s"] = med(lambda p: p.self_of(wedge))
    m["exterior.component.calls"] = med(lambda p: p.calls_of(component))
    m["exterior.component.self_s"] = med(lambda p: p.self_of(component))
    m.update(cold)

    action = "curvature.curvature_action_on_form"
    transverse = ("curvature.transverse_riemann", "curvature.transverse_ricci")
    m["curvature.action.calls"] = med(lambda p: p.calls_of(action))
    m["curvature.action.self_s"] = med(lambda p: p.self_of(action))
    m["curvature.action.ms_per_call"] = med(lambda p: per_call(p, action))
    m["curvature.transverse.calls"] = med(lambda p: p.calls_of(*transverse))
    m["curvature.transverse.self_s"] = med(lambda p: p.self_of(*transverse))
    m["curvature.transverse.per_unit"] = m["curvature.transverse.calls"] / units
    m["curvature.validate.self_s"] = med(
        lambda p: p.self_of("curvature.RiemannTensor.__init__"))

    families = {
        "oneill.bplus": ("oneill.bplus_norm", "oneill.bplus_norm_closed"),
        "oneill.bminus": ("oneill.bminus_norm", "oneill.bminus_norm_closed"),
        "oneill.master": ("oneill.master_identity_residual",),
        "oneill.chain": ("oneill.contraction_chain",),
        "hopf.brackets": ("hopf.oneill_from_brackets", "hopf.lie_bracket"),
        "hopf.frame": ("hopf.adapted_frame", "hopf.fields_YW", "hopf.field_X"),
        "hopf.closed_form": ("hopf.oneill_closed_form",),
        "hopf.mean_curvature": ("hopf.mean_curvature",),
        "hopf.kahler": ("hopf.kahler_form",),
    }
    for key, names in families.items():
        m[f"{key}.self_s"] = med(lambda p: p.self_of(*names))
    m["oneill.master.calls"] = med(lambda p: p.calls_of(*families["oneill.master"]))
    m["oneill.s_per_unit"] = m["oneill.self_s"] / units
    m["hopf.brackets.ms_per_point"] = med(
        lambda p: per_call(p, "hopf.oneill_from_brackets"))

    # complexify has one caller, sample_point: one call per draw
    draws = med(lambda p: p.calls_of("hopf.complexify"))
    m["hopf.sample.draws"] = draws
    m["hopf.sample.accept_ratio"] = (
        med(lambda p: p.calls_of("hopf.sample_point")) / draws if draws else 0.0)
    m["dual.seed_point.calls"] = med(lambda p: p.calls_of("dual.seed_point"))
    m["dual.ops"] = med(lambda p: int(sum(
        c for n, c in zip(p.names, p.calls)
        if n.startswith(("dual.Dual.", "dual.CDual.")))))
    m["trace.overhead_ratio"] = overhead
    return {k: float(v) for k, v in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import folcurv.cli as cli
    gate = Gate(w, args.seed, os.path.join(args.scratch, f"report-{os.getpid()}.json"))
    result = {"folcurv_file": cli.__file__}
    if args.mode != "trace":
        gate.run(cli, SETUP_SIZE)
        result["setup_s"] = time.perf_counter() - t0

    if args.mode == "measure":
        gate.run(cli, w.size)  # warm-up, gated but not timed
        walls = [wall for wall, _ in _timed_loop(gate, cli, args.seconds, 3)]
        result["cmd_s_samples"] = walls
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    elif args.mode == "trace":
        from tracer import SPAN_DTYPE, Tracer

        tracer = Tracer()
        tracer.install()
        tracer.clear_tables()
        before = tracer.table_info()
        gate.run(cli, w.size, tracer=tracer)
        after = tracer.table_info()
        hits = sum(after[t][0] - before[t][0] for t in after)
        builds = sum(after[t][1] - before[t][1] for t in after)
        cold = {"exterior.tables.builds": builds,
                "exterior.tables.bytes": sum(tracer.table_bytes.values()),
                "exterior.tables.hit_ratio": hits / (hits + builds) if builds else 0.0}
        runs = _timed_loop(gate, cli, args.seconds / 2, 2, tracer=tracer)
        tracer.uninstall()
        traced = [wall for wall, _ in runs]
        untraced = [wall for wall, _ in _timed_loop(gate, cli, args.seconds / 2, 2)]
        overhead = _median(traced) / _median(untraced)
        # the spans of the last traced command, with the names they index
        spans_path = os.path.join(args.scratch, f"spans-{w.name}-seed{args.seed}.bin")
        tracer.last_spans.tofile(spans_path)
        with open(spans_path[:-4] + ".names.json", "w") as fh:
            json.dump({"names": tracer.names, "dtype": SPAN_DTYPE.descr}, fh)
        result["per_layer"] = per_layer([p for _, p in runs], cold, w.units(), overhead)
        result["traced_cmd_s_samples"] = traced
        result["cmd_s_samples"] = untraced
        result["spans_file"] = spans_path

    os.remove(gate.out)
    result["gate"] = gate.as_dict()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
