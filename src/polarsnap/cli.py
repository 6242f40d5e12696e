"""Command-line driver.

Subcommands:
    analyze   closed-form snapshot figures per polar border
    simulate  event-driven partitions, snapshot CSVs and topology exports
    route     ground-pair delay experiment
    compare   full pipeline: analytics, all partitions, utilization,
              delay experiments, summary and comparison files

Flags override the corresponding scenario values. ``compare`` exits with
status 1 when any internal validation oracle fails.
"""
import argparse
import sys
from pathlib import Path

from .errors import ScenarioError
from .report import (
    format_summary,
    run_compare,
    write_delay_csv,
    write_snapshot_csv,
    export_topology,
)
from .routing import delay_experiment, utilization
from .scenario import ScenarioConfig, apply_overrides, load_scenario
from .snapshots import analytic_summary, partition
from .geometry import orbit_period


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="path to a scenario file")
    parser.add_argument("--polar-border", type=float, action="append",
                        dest="polar_borders",
                        help="override polar border latitude (repeatable)")
    parser.add_argument("--output-dir", type=Path, help="override output directory")


def _load(args: argparse.Namespace) -> ScenarioConfig:
    config = load_scenario(args.scenario)
    apply_overrides(
        config,
        polar_borders_deg=args.polar_borders,
        output_dir=args.output_dir,
        methods=getattr(args, "methods", None),
        trigger=getattr(args, "trigger", None),
        duration_s=getattr(args, "duration", None),
        interval_s=getattr(args, "interval", None),
    )
    return config


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _load(args)
    spec = config.constellation
    print(f"{spec.name}: closed-form reassignment snapshot figures "
          f"(period {orbit_period(spec):.2f} s)")
    print(f"{'L_pa':>6}{'duration_s':>12}{'count':>7}{'oblique':>9}"
          f"{'horizontal':>12}{'inter_total':>12}")
    for border in config.polar_borders_deg:
        a = analytic_summary(spec, border)
        print(f"{border:>6g}{a.snapshot_duration_s:>12.2f}{a.snapshot_count:>7}"
              f"{a.n_oblique:>9}{a.n_horizontal:>12}{a.n_inter_plane:>12}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    spec = config.constellation
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for border in config.polar_borders_deg:
        for method in config.methods:
            seq = partition(spec, method, border, trigger=config.trigger,
                            equal_time_delta_s=config.equal_time_delta_s)
            util = utilization(seq, spec)
            stem = f"{spec.name}_{method}_{border:g}"
            write_snapshot_csv(seq, config.output_dir / f"{stem}_snapshots.csv")
            export_topology(seq, spec, config.output_dir / f"{stem}_topology.json")
            durations = [s.duration_s for s in seq.snapshots]
            print(f"{spec.name} {method} L_pa={border:g}: {seq.count} snapshots, "
                  f"duration {min(durations):.2f}..{max(durations):.2f} s, "
                  f"utilization {util.value:.4f}")
    print(f"artifacts written to {config.output_dir}")
    return 0


def cmd_route(args: argparse.Namespace) -> int:
    config = _load(args)
    spec = config.constellation
    if config.source is None or config.destination is None:
        print("scenario has no [experiment] source/destination", file=sys.stderr)
        return 2
    config.output_dir.mkdir(parents=True, exist_ok=True)
    for border in config.polar_borders_deg:
        for method in config.methods:
            series = delay_experiment(
                spec, method, border, config.source, config.destination,
                config.duration_s, config.interval_s, trigger=config.trigger,
                equal_time_delta_s=config.equal_time_delta_s)
            stem = f"{spec.name}_{method}_{border:g}"
            write_delay_csv(series, config.output_dir / f"{stem}_delay.csv")
            print(f"{spec.name} {method} L_pa={border:g}: "
                  f"avg delay {1000.0 * series.average_delay_s:.3f} ms over "
                  f"{len(series.samples)} sends "
                  f"({series.unreachable_fraction:.1%} unreachable)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load(args)
    report = run_compare(config)
    print(format_summary(config.constellation, report), end="")
    if not report.ok:
        print(f"{len(report.validation_failures)} validation failures",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polarsnap",
        description="Snapshot partition and routing-delay analysis for "
                    "polar-orbit LEO constellations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="closed-form snapshot figures")
    _add_common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="event-driven snapshot partitions")
    _add_common(p_sim)
    p_sim.add_argument("--methods", help="comma-separated method subset")
    p_sim.add_argument("--trigger", choices=("enter", "exit"))
    p_sim.set_defaults(func=cmd_simulate)

    p_route = sub.add_parser("route", help="ground-pair delay experiment")
    _add_common(p_route)
    p_route.add_argument("--methods", help="comma-separated method subset")
    p_route.add_argument("--trigger", choices=("enter", "exit"))
    p_route.add_argument("--duration", type=float, help="experiment length (s)")
    p_route.add_argument("--interval", type=float, help="send interval (s)")
    p_route.set_defaults(func=cmd_route)

    p_cmp = sub.add_parser("compare", help="full comparison pipeline")
    _add_common(p_cmp)
    p_cmp.add_argument("--methods", help="comma-separated method subset")
    p_cmp.add_argument("--trigger", choices=("enter", "exit"))
    p_cmp.add_argument("--duration", type=float, help="experiment length (s)")
    p_cmp.add_argument("--interval", type=float, help="send interval (s)")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
