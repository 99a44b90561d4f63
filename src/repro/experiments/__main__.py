"""Command-line figure regeneration.

Examples::

    python -m repro.experiments fig4
    python -m repro.experiments fig9 --seeds 3 --sim-time 60
    python -m repro.experiments run REFER --sensors 300 --speed 4

``fig4`` .. ``fig11`` regenerate one evaluation figure and print the
series table; ``campaign`` regenerates all eight as a markdown report
(both take ``--workers/--journal/--resume``; exit code 3 = jobs were
quarantined); ``run`` executes a single scenario for one system and
prints its metrics.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import CampaignError, ConfigError
from repro.experiments import (
    FIGURE_SPECS,
    ScenarioConfig,
    format_figure,
    run_figure,
    run_scenario,
)
from repro.experiments.campaign import campaign_report, run_campaign
from repro.experiments.config import FaultConfig
from repro.experiments.runner import SYSTEMS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate REFER evaluation figures or run one scenario.",
    )
    parser.add_argument(
        "command",
        choices=sorted(FIGURE_SPECS) + ["run", "campaign"],
        help="figure to regenerate, 'run' for a single scenario, or "
        "'campaign' for the full evaluation as a markdown report",
    )
    parser.add_argument(
        "system",
        nargs="?",
        choices=sorted(SYSTEMS),
        help="system name (only with 'run')",
    )
    parser.add_argument("--seeds", type=int, default=2)
    parser.add_argument("--sim-time", type=float, default=30.0)
    parser.add_argument("--rate", type=float, default=12.0)
    parser.add_argument("--sensors", type=int, default=200)
    parser.add_argument("--speed", type=float, default=3.0)
    parser.add_argument("--faults", type=int, default=0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--points",
        type=float,
        nargs="+",
        help="override the figure's x-axis sweep values "
        "(speeds for fig4/5, fault counts for fig6/7, sizes for fig8-11)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="figures and campaign: worker processes the jobs run in "
        "(0 = in this process)",
    )
    parser.add_argument(
        "--journal",
        help="figures and campaign: JSONL checkpoint journal path; "
        "completed jobs are recorded as they finish",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="figures and campaign: replay the journal before running "
        "and re-execute only the jobs it is missing",
    )
    return parser


def base_config(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        sim_time=args.sim_time,
        warmup=max(2.0, args.sim_time / 10.0),
        rate_pps=args.rate,
        sensor_count=args.sensors,
        sensor_max_speed=args.speed,
        seed=args.seed,
        faults=FaultConfig(count=args.faults) if args.faults else None,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        if args.system is None:
            print("error: 'run' needs a system name", file=sys.stderr)
            return 2
        result = run_scenario(args.system, base_config(args))
        print(f"system              : {result.system}")
        print(f"throughput          : {result.throughput_bps / 1000:.1f} kbit/s")
        print(f"mean delay          : {1000 * result.mean_delay_s:.2f} ms")
        print(f"communication energy: {result.comm_energy_j:.0f} J")
        print(f"construction energy : {result.construction_energy_j:.0f} J")
        print(
            f"delivered (QoS)     : {result.delivered_qos}/{result.generated}"
            f"  (dropped {result.dropped})"
        )
        return 0
    supervision = dict(
        workers=args.workers, journal=args.journal, resume=args.resume
    )
    try:
        if args.command == "campaign":
            result = run_campaign(
                base_config(args), seeds=args.seeds, **supervision
            )
            print(campaign_report(result))
            return 0 if not result.failed_jobs else 3
        xs = None
        if args.points:
            # An axis of sensor or fault counts is typed by its spec.
            number = type(FIGURE_SPECS[args.command].default_xs[0])
            xs = tuple(number(p) for p in args.points)
        data = run_figure(
            args.command, base_config(args), xs, seeds=args.seeds,
            **supervision,
        )
    except (ConfigError, CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    print(format_figure(data))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
