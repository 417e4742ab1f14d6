"""folcurv benchmark: three seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload {verify,hopf-kahler,hopf-weighted,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Every measurement happens in child processes (``worker.py``) whose
BLAS and OpenMP thread variables are pinned to at most ``nproc``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
processes of importing ``folcurv.cli`` plus one smallest-size command),
``cmd_s`` (median warm wall time of one full command), ``units_per_s``,
``peak_rss_mb`` and, on a line of its own, ``fail_ratio``.  ``--trace 1``
prints the per-layer metrics from a traced run and its overhead.  Every
command's report is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
and ``failed`` count report checks (their ratio is ``fail_ratio``).
Run records and span files are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROCESSES = 40         # fresh set-up processes besides the measuring one
DEADLINE_S = 170.0           # every run ends well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared_metrics(kind: str) -> dict[str, str]:
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; the printed result holds exactly these."""
    return {m["name"]: m["unit"] for m in declaration()[kind]}


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of the measuring processes: the checkout's ``src`` first on
    the path, thread pools pinned to at most nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    limit = nproc()
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, ""))
        except ValueError:
            current = limit
        env[var] = str(min(max(current, 1), limit))
    return env


def environment() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "folcurv")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "nproc": nproc(),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy_version,
            "threads": child_env()["OMP_NUM_THREADS"]}


def run_worker(mode: str, workload: str, seed: int, seconds: float, scratch: str,
               deadline: float) -> dict:
    result = os.path.join(scratch, f"worker-{mode}-{workload}.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--scratch", scratch, "--result", result]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} timed out")
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"{mode} worker for {workload} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    with open(result) as fh:
        out = json.load(fh)
    expected = os.path.join(ROOT, "src", "folcurv", "cli.py")
    if os.path.realpath(out["folcurv_file"]) != os.path.realpath(expected):
        raise BenchError(f"imported {out['folcurv_file']}, not the checkout's {expected}")
    return out


def _spread(samples) -> str:
    return (f"median of {len(samples)}, min {min(samples):.4f}, "
            f"max {max(samples):.4f}")


def end_to_end(name: str, seed: int, seconds: float, scratch: str, deadline: float):
    w = WORKLOADS[name]
    measure = run_worker("measure", name, seed, seconds, scratch, deadline)
    runs = [measure] + [run_worker("setup", name, seed, seconds, scratch, deadline)
                        for _ in range(SETUP_PROCESSES)]
    setups = [r["setup_s"] for r in runs]
    cmd = measure["cmd_s_samples"]
    cmd_s = statistics.median(cmd)
    metrics = {
        "setup_s": statistics.median(setups),
        "cmd_s": cmd_s,
        "units_per_s": w.units() / cmd_s,
        "peak_rss_mb": measure["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"{_spread(setups)} fresh processes",
        "cmd_s": f"{_spread(cmd)} warm commands",
        "units_per_s": f"{w.units()} {w.unit}s per command",
        "peak_rss_mb": "measuring process, ru_maxrss",
    }
    return metrics, notes, runs


def gate_totals(runs) -> tuple[int, int, list[str]]:
    """Checks attempted and failed over all processes.  Reports of one size
    must be byte-identical across processes too, or every check fails."""
    attempted = sum(r["gate"]["attempted"] for r in runs)
    failed = sum(r["gate"]["failed"] for r in runs)
    problems = [p for r in runs for p in r["gate"]["problems"]]
    digests: dict[str, set] = {}
    for r in runs:
        for size, digest in r["gate"]["digests"].items():
            digests.setdefault(size, set()).add(digest)
    if any(len(d) > 1 for d in digests.values()):
        problems.append("report bytes differ between processes")
        failed = attempted
    return attempted, failed, problems


def bench_one(name: str, seed: int, seconds: float, trace: bool, scratch: str,
              deadline: float, env: dict) -> tuple[dict, int, int]:
    """Run one workload, print its metrics, write its record; return
    (metrics with units, attempted, failed)."""
    if trace:
        run = run_worker("trace", name, seed, seconds, scratch, deadline)
        runs = [run]
        values = run["per_layer"]
        units = declared_metrics("per_layer")
        wall = statistics.median(run["traced_cmd_s_samples"])
        print(f"  traced cmd_s {wall:.4f} s ({_spread(run['traced_cmd_s_samples'])}); "
              f"untraced {statistics.median(run['cmd_s_samples']):.4f} s")
        for k, v in values.items():
            share = f"  {100 * v / wall:5.1f}% of traced cmd_s" if k.endswith(".self_s") else ""
            print(f"  {k:34s} {v:14.6g}{share}")
        print(f"  spans: {run['spans_file']}")
    else:
        values, notes, runs = end_to_end(name, seed, seconds, scratch, deadline)
        units = declared_metrics("end_to_end")
        for k, v in values.items():
            print(f"  {k:12s} {v:12.6g} {units.get(k, '?'):4s} {notes[k]}")
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    attempted, failed, problems = gate_totals(runs)
    print(f"  {'fail_ratio':12s} {failed / attempted:12.6g} {'ratio':4s} "
          f"{failed} of {attempted} checks failed")
    for p in problems[:5]:
        print(f"  FAILED: {p}")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "metrics": metrics, "attempted": attempted,
              "failed": failed, "problems": problems, "workers": runs}
    with open(os.path.join(scratch, f"result-{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else declaration()["run_seconds"]
    deadline = time.monotonic() + DEADLINE_S * (3 if args.workload == "all" else 1)

    if not os.path.isfile(os.path.join(ROOT, "src", "folcurv", "cli.py")):
        print(f"perfbench: no folcurv source under {ROOT}/src", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            print(f"perfbench {name} seed={args.seed} trace={args.trace} seconds={seconds:g} "
                  + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
            metrics, a, f = bench_one(name, args.seed, seconds, bool(args.trace), scratch,
                                      deadline, env)
            prefix = f"{name}." if len(names) > 1 else ""
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
