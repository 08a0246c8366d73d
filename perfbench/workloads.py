"""Workload definitions and the one call the benchmark times.

A workload is a list of scenario runs at fixed sizes. One repetition runs
each of them once through the in-process CLI (`quditsum.cli.main`), which
is exactly what `quditsum run` does: run_scenario, write_report, summary.
Every repetition of a run uses the same master seed, so their per_trial
blocks must match byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]
    d: int
    n: int
    m: int
    eta: int
    decoys: int
    trials: int  # per scenario per repetition

    def params(self) -> dict:
        return {**asdict(self), "register_amplitudes": self.d**self.n}

    def argv(self, scenario: str, seed: int, out: Path) -> list[str]:
        return [
            "run", "--scenario", scenario,
            "--d", str(self.d), "--n", str(self.n), "--m", str(self.m),
            "--eta", str(self.eta), "--decoys", str(self.decoys),
            "--trials", str(self.trials), "--seed", str(seed), "--out", str(out),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-mix",
            ("honest", "iqft-attack", "modified-honest", "modified-attack", "eve-decoy"),
            d=5, n=3, m=4, eta=6, decoys=16, trials=20,
        ),
        Workload(
            "wide-register",
            ("honest", "modified-honest", "eve-decoy"),
            d=10, n=6, m=1, eta=2, decoys=16, trials=4,
        ),
        Workload(
            "detect-sweep",
            ("modified-attack",),
            d=5, n=3, m=1, eta=6, decoys=0, trials=1000,
        ),
    )
}


def quditsum_seed(seed: int) -> int:
    """The master seed handed to the CLI: the workload seed, kept in 63 bits."""
    return seed % 2**63


def run_cli(workload: Workload, scenario: str, seed: int, out: Path) -> tuple[int, float]:
    """One `quditsum run` in this process; returns (exit code, wall seconds).

    The timed span is the whole CLI call. Its stdout summary is captured
    so the benchmark's own output stays parseable.
    """
    from quditsum import cli

    argv = workload.argv(scenario, quditsum_seed(seed), out)
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, time.perf_counter() - t0


def warm_up(workload: Workload, seed: int) -> None:
    """Build and validate every scenario config and run one trial of each.

    This fills the QFT matrix cache and takes the first-touch page faults,
    the set-up a user pays once per process.
    """
    from quditsum import ProtocolConfig, ScenarioConfig, run_scenario

    for scenario in workload.scenarios:
        protocol = ProtocolConfig(d=workload.d, n=workload.n, m=workload.m,
                                  decoy_count=workload.decoys, seed=quditsum_seed(seed))
        cfg = ScenarioConfig(scenario=scenario, protocol=protocol, eta=workload.eta,
                             trials=1, master_seed=quditsum_seed(seed))
        run_scenario(cfg)
