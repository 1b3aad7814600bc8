"""Command-line front end: scenario runs, calibration, sweeps, fringe dumps.

Exit codes: 0 on success, 1 for scenario/argument validation problems,
2 for unexpected runtime failures.  CSV goes to --out (or stdout); human
status lines go to stderr so output stays machine-readable.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness
from .harness import ScenarioError


def _parse_grid(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ScenarioError(f"grid {spec!r}: expected start:stop:count or v1,v2,...")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ScenarioError(f"grid {spec!r}: expected numbers in start:stop:count") from None
        if count < 1:
            raise ScenarioError(f"grid {spec!r}: count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        return [float(v) for v in spec.split(",") if v.strip() != ""]
    except ValueError:
        raise ScenarioError(f"grid {spec!r}: expected comma-separated numbers") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


def _add_common(p: argparse.ArgumentParser, transcript: bool = True) -> None:
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario master seed")
    p.add_argument("--pulses", type=int, default=None, help="override the pulse count")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    if transcript:
        p.add_argument("--transcript", default=None, help="write a per-pulse transcript CSV here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopqkd",
        description="Loop-interferometer quantum key distribution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and report session statistics")
    _add_common(p_run)

    p_cal = sub.add_parser("calibrate", help="fit loop parameters to rate/error targets")
    p_cal.add_argument("scenario", help="base scenario YAML file")
    p_cal.add_argument("--target-raw", type=float, required=True, help="target raw key rate in Hz")
    p_cal.add_argument("--target-qber", type=float, required=True, help="target error rate (fraction)")
    p_cal.add_argument("--out", default=None, help="write the fitted scenario YAML here")

    p_sweep = sub.add_parser("sweep", help="run a grid over one numeric scenario parameter")
    _add_common(p_sweep, transcript=False)
    p_sweep.add_argument("--axis", required=True, help="dotted parameter path, e.g. source.mu")
    p_sweep.add_argument("--grid", required=True, help="start:stop:count or v1,v2,v3")

    p_net = sub.add_parser("net-run", help="run a ring-network session with a chosen partner")
    _add_common(p_net)
    p_net.add_argument("--partner", required=True, help="entity id to key with")

    p_fringe = sub.add_parser("fringe", help="dump detection probabilities over a phase grid")
    p_fringe.add_argument("scenario", help="scenario YAML file")
    p_fringe.add_argument("--points", type=int, default=360, help="grid points over [0, 2pi)")
    p_fringe.add_argument("--partner", default=None, help="ring partner (ring scenarios only)")
    p_fringe.add_argument("--out", default=None, help="write CSV here instead of stdout")

    return parser


def _cmd_run(args: argparse.Namespace, partner: str | None = None) -> None:
    scenario = harness.load_scenario(args.scenario)
    collect = args.transcript is not None
    report, transcript = harness.run(
        scenario,
        seed=args.seed,
        pulses=args.pulses,
        partner=partner,
        collect_records=collect,
    )
    _emit(harness.run_csv(report), args.out)
    if collect:
        with open(args.transcript, "w", encoding="utf-8", newline="") as f:
            f.write(harness.transcript_csv(transcript))
        _status(f"transcript: {len(transcript)} pulses -> {args.transcript}")
    s = report.stats
    _status(
        f"scenario {report.digest} seed {report.seed}: {report.pulses} pulses, "
        f"raw rate {s.raw_rate:.6g} Hz, QBER {s.qber:.6g} "
        f"[{s.qber_low:.6g}, {s.qber_high:.6g}] ({report.wall_clock:.2f} s)"
    )


def _cmd_calibrate(args: argparse.Namespace) -> None:
    scenario = harness.load_scenario(args.scenario)
    result = harness.calibrate(scenario, args.target_raw, args.target_qber)
    _emit(harness.dump_scenario(result.effective), args.out)
    _status(
        f"fitted: attenuator transmittance {result.transmittance:.9g}, "
        f"visibility {result.visibility:.9g} (rotation {result.rotation_angle:.9g} rad); "
        f"expected raw rate {result.expected_raw_rate:.6g} Hz, "
        f"QBER {result.expected_qber:.6g}, sifted-click probability "
        f"{result.expected_sifted_prob:.6g}"
    )


def _cmd_sweep(args: argparse.Namespace) -> None:
    scenario = harness.load_scenario(args.scenario)
    grid = _parse_grid(args.grid)
    report = harness.sweep(scenario, args.axis, grid, seed=args.seed, pulses=args.pulses)
    _emit(harness.sweep_csv(report), args.out)
    _status(
        f"swept {args.axis} over {len(grid)} points, shared master seed {report.seed} "
        f"({report.wall_clock:.2f} s)"
    )


def _cmd_fringe(args: argparse.Namespace) -> None:
    scenario = harness.load_scenario(args.scenario)
    rows = harness.fringe(scenario, points=args.points, partner=args.partner)
    _emit(harness.fringe_csv(rows), args.out)
    _status(f"fringe: {len(rows)} phase points")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "run":
            _cmd_run(args)
        elif args.command == "calibrate":
            _cmd_calibrate(args)
        elif args.command == "sweep":
            _cmd_sweep(args)
        elif args.command == "net-run":
            _cmd_run(args, partner=args.partner)
        elif args.command == "fringe":
            _cmd_fringe(args)
        return 0
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
