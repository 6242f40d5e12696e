"""Command-line driver: argument parsing and printing.

Subcommands:
    analyze   closed-form snapshot figures per polar border
    simulate  all partitions, validated: snapshot CSVs, topology exports,
              summary and comparison files
    route     the same plus the ground-pair delay experiment and its
              delay CSVs
    compare   the same files as route, with the summary table as output

``simulate``, ``route`` and ``compare`` all run ``report.run_compare``;
``simulate`` runs it with the scenario's stations cleared, so it routes
nothing. Flags override the corresponding scenario values; their text goes
through the parser of the scenario key, so it is checked as in a file. All
three exit with status 1 when any internal validation oracle fails, and
every command exits with status 2 on a scenario error.
"""
import argparse
import dataclasses
import sys

from .errors import ScenarioError
from .geometry import orbit_period
from .report import ComparisonReport, border_name, delay_ms, format_summary, run_compare
from .routing import send_count
from .scenario import ScenarioConfig, apply_overrides, load_scenario
from .snapshots import analytic_summary

# Subcommand flags past the shared ones, in the order they are added.
_FLAGS = (
    ("--methods", dict(help="comma-separated method subset")),
    ("--trigger", dict(help="enter or exit")),
    ("--duration", dict(help="experiment length (s)")),
    ("--interval", dict(help="send interval (s)")),
)


def _load(args: argparse.Namespace) -> ScenarioConfig:
    config = load_scenario(args.scenario)
    apply_overrides(
        config,
        polar_borders_deg=args.polar_borders and ",".join(args.polar_borders),
        output_dir=args.output_dir,
        methods=getattr(args, "methods", None),
        trigger=getattr(args, "trigger", None),
        duration_s=getattr(args, "duration", None),
        interval_s=getattr(args, "interval", None),
    )
    return config


def _status(report: ComparisonReport) -> int:
    if report.ok:
        return 0
    print(f"{len(report.validation_failures)} validation failures", file=sys.stderr)
    return 1


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _load(args)
    spec = config.constellation
    print(f"{spec.name}: closed-form reassignment snapshot figures "
          f"(period {orbit_period(spec):.2f} s)")
    rows = [("L_pa", "duration_s", "count", "oblique", "horizontal", "inter_total")]
    for border in config.polar_borders_deg:
        a = analytic_summary(spec, border)
        rows.append((border_name(border), f"{a.snapshot_duration_s:.2f}", a.snapshot_count,
                     a.n_oblique, a.n_horizontal, a.n_inter_plane))
    for first, *cells in rows:  # cells stay a space apart, however wide
        print(f"{first:>6}" + "".join(f" {c:>{w}}" for c, w in zip(cells, (11, 6, 8, 11, 11))))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = dataclasses.replace(_load(args), source=None, destination=None)
    report = run_compare(config)
    for row in report.rows:
        print(f"{report.scenario_name} {row.method} L_pa={border_name(row.polar_border_deg)}: "
              f"{row.snapshot_count} snapshots, duration {row.duration_min_s:.2f}.."
              f"{row.duration_max_s:.2f} s, utilization {row.utilization:.4f}")
    print(f"artifacts written to {config.output_dir}")
    return _status(report)


def cmd_route(args: argparse.Namespace) -> int:
    config = _load(args)
    if config.source is None or config.destination is None:
        print("scenario has no [experiment] source/destination", file=sys.stderr)
        return 2
    report = run_compare(config)
    sends = send_count(config.duration_s, config.interval_s)
    for row in report.rows:
        print(f"{report.scenario_name} {row.method} L_pa={border_name(row.polar_border_deg)}: "
              f"avg delay {delay_ms(row.average_delay_s)} ms over {sends} sends "
              f"({row.unreachable_fraction:.1%} unreachable)")
    return _status(report)


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load(args)
    report = run_compare(config)
    print(format_summary(config.constellation, report), end="")
    return _status(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polarsnap",
        description="Snapshot partition and routing-delay analysis for "
                    "polar-orbit LEO constellations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, n_flags, help_text in (
        ("analyze", cmd_analyze, 0, "closed-form snapshot figures"),
        ("simulate", cmd_simulate, 2, "event-driven snapshot partitions"),
        ("route", cmd_route, 4, "ground-pair delay experiment"),
        ("compare", cmd_compare, 4, "full comparison pipeline"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario file")
        p.add_argument("--polar-border", action="append",
                       dest="polar_borders",
                       help="override polar border latitude (repeatable)")
        p.add_argument("--output-dir", help="override output directory")
        for flag, kwargs in _FLAGS[:n_flags]:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
