"""Command line front end: run one scenario, write one JSON report.

Exit codes: 0 on success, 2 on an invalid configuration, 3 when the
report cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from .harness import SCENARIOS, ScenarioConfig, run_scenario, write_report
from .protocol import ProtocolConfig


@lru_cache(maxsize=None)  # built on a first main call, not at import, then shared by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditsum",
        description="Simulate a Fourier-transform based multi-party summation "
                    "protocol, attacks on it, and the hardened variant.",
    )
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list the scenario tags and exit")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run one scenario and write a JSON report")
    run_p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    run_p.add_argument("--d", type=int, default=10, help="digit modulus, i.e. levels per qudit (default 10)")
    run_p.add_argument("--n", type=int, default=3, help="number of participants (default 3)")
    run_p.add_argument("--m", type=int, default=4, help="digits per secret (default 4)")
    run_p.add_argument("--eta", type=int, default=6,
                       help="extra check states, used by the modified scenarios (default 6)")
    run_p.add_argument("--decoys", type=int, default=16,
                       help="decoys per transmitted sequence (default 16)")
    run_p.add_argument("--threshold", type=float, default=0.0,
                       help="decoy error rate tolerated before abort (default 0)")
    run_p.add_argument("--trials", type=int, default=1000, help="trial count (default 1000)")
    run_p.add_argument("--seed", type=int, default=12345, help="64-bit master seed (default 12345)")
    run_p.add_argument("--secrets", nargs="+", metavar="DIGITS",
                       help="fix the secrets: one comma-separated digit list per participant, "
                            "e.g. --secrets 4 5 6 or --secrets 1,2 3,4 5,6")
    run_p.add_argument("--fake-r", type=int, default=None,
                       help="fix the attack's fabrication value for every round")
    run_p.add_argument("--out", required=True, help="path of the JSON report")
    return parser


def _parse_secrets(tokens: list[str], n: int) -> tuple[tuple[int, ...], ...]:
    if len(tokens) != n:
        raise ValueError(f"--secrets needs one digit list per participant (n={n}), got {len(tokens)}")
    secrets = []
    for tok in tokens:
        try:
            secrets.append(tuple(int(x) for x in tok.split(",")))
        except ValueError:
            raise ValueError(f"--secrets entry {tok!r} is not a comma-separated digit list") from None
    return tuple(secrets)


def _print_summary(report: dict) -> None:
    aggregates = report["aggregates"]
    print(f"scenario {report['scenario']}: {report['params']['trials']} trials "
          f"in {report['duration_seconds']:.2f}s")
    for name, entry in aggregates.items():
        if not isinstance(entry, dict):
            continue
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6f}"
        print(f"  {name}: {shown} (oracle {entry['oracle']:.6f})")
    if aggregates["flagged"]:
        print(f"  outside 4 sigma: {', '.join(aggregates['flagged'])}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_scenarios:
        for tag in sorted(SCENARIOS):
            print(f"{tag:16s} {SCENARIOS[tag].description}")
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        print("error: nothing to do (use 'run' or --list-scenarios)", file=sys.stderr)
        return 2
    try:
        protocol = ProtocolConfig(d=args.d, n=args.n, m=args.m, decoy_count=args.decoys,
                                  error_threshold=args.threshold)
        secrets = _parse_secrets(args.secrets, args.n) if args.secrets else None
        cfg = ScenarioConfig(scenario=args.scenario, protocol=protocol, eta=args.eta,
                             trials=args.trials, master_seed=args.seed,
                             secrets=secrets, fake_r=args.fake_r)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # fail before the trials run, not after; the empty path and a trailing slash name directories
    out = Path(args.out)
    if out.is_dir() or args.out.endswith("/") or not out.parent.is_dir():
        print(f"error: --out {args.out!r} is not a file in an existing directory", file=sys.stderr)
        return 3
    report = run_scenario(cfg)
    try:
        write_report(report, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _print_summary(report)
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
