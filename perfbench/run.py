"""quditsum benchmark: trials per second on three workloads, plus a traced
per-layer breakdown taken from outside the package.

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

A run with --trace 0 measures the end-to-end metrics: set-up time in
fresh processes, then repetitions of the workload through the in-process
CLI until --seconds have passed. A run with --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics. `--workload all`
runs every workload both ways, one process at a time, and prints them all.

Every report the CLI writes goes through the correctness gate (gate.py).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit code 0 when every scenario run passed,
1 when one failed or raised, 2 on bad arguments or missing sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from gate import check_report, digest
from workloads import WORKLOADS, Workload, run_cli, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5
MIN_REPS = 3
PROBE_TIMEOUT_S = 120


@dataclass
class ScenarioRun:
    scenario: str
    path: Path
    code: int | None = None
    wall: float = 0.0
    error: str | None = None


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap OpenBLAS threads at nproc; must run before numpy is imported."""
    cap = _nproc()
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if current.isdigit() and 0 < int(current) <= cap:
        cap = int(current)
    os.environ["OPENBLAS_NUM_THREADS"] = str(cap)


def environment(workload: Workload, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict form
        blas_name = "unknown"
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": _nproc(),
        "machine": platform.machine(),
        "git_sha": sha,
        "seed": seed,
        "workload": workload.name,
        "params": workload.params(),
    }


def probe_setup(workload: Workload, seed: int) -> float:
    """Seconds one fresh process needs to import, validate and warm up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload.name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_rep(workload: Workload, seed: int, out_dir: Path, rep: int) -> list[ScenarioRun]:
    """One repetition: every scenario of the workload once through the CLI."""
    runs = []
    for scenario in workload.scenarios:
        run = ScenarioRun(scenario, out_dir / f"rep{rep:04d}-{scenario}.json")
        try:
            run.code, run.wall = run_cli(workload, scenario, seed, run.path)
        except Exception:  # a raising run is counted as failed, the rest go on
            run.error = traceback.format_exc()
            print(run.error, file=sys.stderr)
        runs.append(run)
    return runs


def gate_runs(workload: Workload, runs: list[ScenarioRun]) -> list[str]:
    """Gate every report, compare digests per scenario, delete the files."""
    failures = []
    reference: dict[str, str] = {}
    for run in runs:
        label = run.path.name
        if run.error is not None or run.code != 0:
            failures.append(f"{label}: exit code {run.code}, error {run.error!r}")
            continue
        with open(run.path) as f:
            doc = json.load(f)
        run.path.unlink()
        problems = check_report(doc, workload.trials)
        ref = reference.setdefault(run.scenario, digest(doc))
        if digest(doc) != ref:
            problems.append("per_trial digest differs from the first repetition")
        failures += [f"{label}: {p}" for p in problems]
    return failures


def rep_rate(workload: Workload, rep: list[ScenarioRun]) -> float:
    return workload.trials * len(rep) / sum(r.wall for r in rep)


def _spread(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}; n={len(values)}"


def _per_scenario(workload: Workload, reps: list[list[ScenarioRun]]) -> str:
    parts = []
    for scenario in workload.scenarios:
        walls = [r.wall for rep in reps for r in rep if r.scenario == scenario]
        parts.append(f"{scenario} {workload.trials / statistics.median(walls):.4g}")
    return ", ".join(parts)


def measure_end_to_end(workload: Workload, seed: int, seconds: float, out_dir: Path):
    setup = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    warm_up(workload, seed)
    reps: list[list[ScenarioRun]] = []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(run_rep(workload, seed, out_dir, len(reps)))
    elapsed = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = [r for rep in reps for r in rep]
    failures = gate_runs(workload, runs)

    rates = [rep_rate(workload, rep) for rep in reps]
    metrics = {
        "trials_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {workload.name}, seed {seed}, untraced: {len(reps)} repetitions of "
          f"{len(workload.scenarios)} scenarios x {workload.trials} trials in {elapsed:.1f} s")
    print(f"  trials_per_s  {metrics['trials_per_s']:.6g} trials/s  ({_spread(rates)} repetitions)")
    print(f"  setup_s       {metrics['setup_s']:.6g} s  ({_spread(setup)} fresh processes)")
    print(f"  peak_rss_mb   {peak_rss_mb:.6g} MB")
    print(f"  failed_share  {len(failures)}/{len(runs)} scenario runs")
    print(f"  trials/s by scenario (median): {_per_scenario(workload, reps)}")
    return metrics, END_TO_END, len(runs), failures


def measure_layers(workload: Workload, seed: int, seconds: float, out_dir: Path):
    from tracer import SCENARIO_ORDER, Tracer

    warm_up(workload, seed)
    tracer = Tracer()
    plain: list[list[ScenarioRun]] = []
    traced: list[list[ScenarioRun]] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_REPS or time.perf_counter() < deadline:
        plain.append(run_rep(workload, seed, out_dir, 2 * len(traced)))
        with tracer.installed():
            traced.append(run_rep(workload, seed, out_dir, 2 * len(traced) + 1))
    runs = [r for pair in zip(plain, traced) for rep in pair for r in rep]
    failures = gate_runs(workload, runs)

    def wall(reps):
        return statistics.median(sum(r.wall for r in rep) for rep in reps)

    overhead = wall(traced) / wall(plain) - 1.0
    layers = tracer.layer_metrics(overhead)
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload.name}-seed{seed}.npz"
    tracer.dump(dump)

    print(f"workload {workload.name}, seed {seed}, traced: {len(traced)} traced and "
          f"{len(plain)} untraced repetitions; {len(tracer.start)} spans written to "
          f"{dump.relative_to(ROOT)}")
    print(f"  failed_share  {len(failures)}/{len(runs)} scenario runs")
    print("  per-layer metrics (per traced trial; kernel counts are computed from d**k, not measured)")
    for name, (value, unit) in layers.items():
        print(f"    {name:44s} {value:14.6g} {unit}")
    print("  spans by self time          calls/trial   total ms/trial   self ms/trial   us/call")
    trials = sum(tracer.trials_by_tag)
    table = sorted(tracer.span_table().items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in (kv for kv in table if kv[1]["calls"]):
        print(f"    {name:36s} {row['calls'] / trials:10.4g} {row['total_s'] * 1e3 / trials:14.4g} "
              f"{row['self_s'] * 1e3 / trials:14.4g} {row['total_s'] * 1e6 / row['calls']:11.4g}")
    shares = ", ".join(f"{s} {tracer.decoy_share(s):.3f}" for s in SCENARIO_ORDER
                       if s in workload.scenarios)
    print(f"  decoy time share by scenario: {shares}")
    units = {name: unit for name, (_, unit) in layers.items()}
    return {name: value for name, (value, _) in layers.items()}, units, len(runs), failures


def run_one(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    out_dir = OUT / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        measure = measure_layers if trace else measure_end_to_end
        values, units, attempted, failures = measure(workload, seed, seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for failure in failures:
        print(f"  FAILED {failure}")
    print("environment " + json.dumps(environment(workload, seed)))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=seconds * 3 + 600,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]) + "\n")
            code = max(code, proc.returncode)
            if proc.returncode not in (0, 1) or not lines:
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            if not trace:
                for metric, entry in result["metrics"].items():
                    combined["metrics"][f"{name}.{metric}"] = entry
    print("end-to-end summary")
    for key, entry in combined["metrics"].items():
        print(f"  {key:32s} {entry['value']:12.6g} {entry['unit']}")
    print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quditsum" / "__init__.py").is_file():
        print(f"error: quditsum sources not found under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
