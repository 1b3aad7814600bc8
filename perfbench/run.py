"""loopqkd benchmark: one workload per process, driven through ``loopqkd.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload calibrated_run --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced operations and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced operations, replays the session
stages, and reports the per-layer metrics.  Every output of every operation
is checked.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; status and tables go
to stderr, and the full result (samples, checks, environment stamp) goes to
``perfbench/out/BENCH_<workload>_trace<t>_seed<n>.json``.  The workloads and
metrics are explained in ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One process, no worker threads: pin the BLAS/OpenMP pools before NumPy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_SECONDS, reference_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand
    scenario: str  # relative to the repository root
    pulses: int = 0  # --pulses per run / net-run operation
    partner: str | None = None
    transcript: bool = False


# Why each workload exists, and what it is there to catch: perfbench/README.md.
WORKLOADS = {
    "calibrated_run": Workload("run", "scenarios/paper_calibrated.yaml", pulses=2_000_000),
    "ring_noisy": Workload(
        "net-run", "perfbench/scenarios/ring_noisy.yaml", pulses=1_000_000, partner="alice"
    ),
    "transcript": Workload(
        "run", "scenarios/paper_calibrated.yaml", pulses=100_000, transcript=True
    ),
    "calibrate": Workload("calibrate", "scenarios/calibration_base.yaml"),
}

# The paper's bench point, as in the shipped paper_calibrated scenario.
CAL_TARGET_RAW = 1200.0
CAL_TARGET_QBER = 0.054
CAL_REL_TOL = 1e-6  # the calibrator's own convergence tolerance
Z_LIMIT = 3.0
MIN_OPS = 5  # per timed series
SETUP_REPEATS = 9
RUN_HEADER = (
    "digest,seed,pulses,raw_clicks,sifted_bits,errors,disclosed_bits,"
    "raw_rate_hz,qber,qber_low,qber_high"
)
TRANSCRIPT_HEADER = "index,alice_bit,alice_basis,bob_basis,phi_a,phi_b,outcome,sifted,decoded_bit"
COUNT_FIELDS = ("raw_clicks", "sifted_bits", "errors", "disclosed_bits")

# Prints the set-up time, then the reference kernel's time in the same process.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from loopqkd import harness
from loopqkd.loopmodel import fringe_coefficients
scenario = harness.load_scenario(sys.argv[3])
fringe_coefficients(scenario.effective_loop(sys.argv[4] if len(sys.argv) > 4 else None))
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from reference import reference_seconds
print(setup, reference_seconds())
"""


def import_loopqkd():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "loopqkd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no loopqkd sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import loopqkd

    if Path(loopqkd.__file__).resolve().parent != SRC / "loopqkd":
        raise SystemExit(f"perfbench: imported loopqkd from {loopqkd.__file__}, not {SRC}")


@dataclass
class Op:
    seed: int
    wall: float  # host seconds
    traced: bool
    outputs: dict  # output name -> path
    problems: list = field(default_factory=list)
    counts: dict | None = None
    ref: float = REFERENCE_SECONDS  # reference kernel seconds around the operation

    @property
    def scaled(self) -> float:
        """Host seconds scaled to the reference host speed (see reference.py)."""
        return self.wall * REFERENCE_SECONDS / self.ref


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, name: str, work: Path):
        from loopqkd import harness

        self.w = WORKLOADS[name]
        self.work = work
        self.scenario_path = ROOT / self.w.scenario
        self.scenario = harness.load_scenario(str(self.scenario_path))
        with open(BENCH / "golden.json", encoding="utf-8") as f:
            self.golden = json.load(f)[name]
        if self.golden["seed"] != self.scenario.seed:
            raise SystemExit(f"perfbench: golden outputs of {name} were taken at another seed")

    # ---------------------------------------------------------------- ops

    def run_op(self, seed: int, tracer=None) -> Op:
        from loopqkd import cli

        w = self.w
        if w.command == "calibrate":
            base = self.scenario_path
            if seed != self.scenario.seed:
                import yaml

                raw = yaml.safe_load(base.read_text(encoding="utf-8"))
                raw["seed"] = seed
                base = self.work / "calibration_base.yaml"
                base.write_text(yaml.safe_dump(raw), encoding="utf-8")
            outputs = {"fitted_yaml": self.work / "fitted.yaml"}
            argv = [
                "calibrate", str(base),
                "--target-raw", repr(CAL_TARGET_RAW),
                "--target-qber", repr(CAL_TARGET_QBER),
                "--out", str(outputs["fitted_yaml"]),
            ]
        else:
            outputs = {"run_csv": self.work / "run.csv"}
            argv = [
                w.command, str(self.scenario_path),
                "--seed", str(seed), "--pulses", str(w.pulses), "--out", str(outputs["run_csv"]),
            ]
            if w.partner:
                argv += ["--partner", w.partner]
            if w.transcript:
                outputs["transcript_csv"] = self.work / "transcript.csv"
                argv += ["--transcript", str(outputs["transcript_csv"])]
        status = io.StringIO()
        with contextlib.redirect_stderr(status), (tracer.active() if tracer else contextlib.nullcontext()):
            t0 = perf_counter()
            rc = cli.main(argv)
            wall = perf_counter() - t0
        op = Op(seed=seed, wall=wall, traced=tracer is not None, outputs=outputs)
        if rc != 0:
            op.problems.append(f"exit code {rc}: {status.getvalue().strip()[-300:]}")
        else:
            self.check(op)
        for path in outputs.values():
            path.unlink(missing_ok=True)
        return op

    # ------------------------------------------------------------- checks

    def check(self, op: Op) -> None:
        if op.seed == self.scenario.seed:
            for key, path in op.outputs.items():
                if sha256(path) != self.golden[key]:
                    op.problems.append(f"{key} differs from the golden output at seed {op.seed}")
        if self.w.command == "calibrate":
            self.check_fit(op)
            return
        op.counts = self.check_run_csv(op)
        if op.counts is None:
            return
        if self.w.transcript:
            self.check_transcript(op)
        if self.scenario.ring is not None:
            from loopqkd.bb84 import SessionStats
            from loopqkd.loopnet import detect_disturbance

            stats = SessionStats.from_counts(
                pulses_sent=self.w.pulses, rep_rate=self.scenario.source.rep_rate, **op.counts
            )
            verdict = detect_disturbance(stats).value
            if verdict != self.golden["verdict"]:
                op.problems.append(f"disturbance verdict {verdict}, expected {self.golden['verdict']}")

    def check_run_csv(self, op: Op) -> dict | None:
        lines = op.outputs["run_csv"].read_text(encoding="utf-8").splitlines()
        if len(lines) != 3 or lines[0] != "# schema loopqkd.run.v1" or lines[1] != RUN_HEADER:
            op.problems.append("run CSV is not a one-row loopqkd.run.v1 table")
            return None
        row = dict(zip(RUN_HEADER.split(","), lines[2].split(",")))
        counts = {k: int(row[k]) for k in COUNT_FIELDS}
        if (row["digest"], int(row["seed"]), int(row["pulses"])) != (
            self.scenario.digest, op.seed, self.w.pulses
        ):
            op.problems.append(f"run CSV identifies another run: {lines[2]}")
        if not (
            0 <= counts["errors"] <= counts["disclosed_bits"] <= counts["sifted_bits"]
            <= counts["raw_clicks"] <= self.w.pulses
        ):
            op.problems.append(f"counting invariants broken: {counts}")
        return counts

    def check_transcript(self, op: Op) -> None:
        """Recount the transcript's records with ``bb84.sift``.

        A row without a click adds nothing to any count, so it is checked by
        its text alone: its index, outcome "none", not sifted, no bit.  Every
        other row becomes a ``PulseRecord`` for the recount.  This keeps the
        check several times cheaper than the operation it checks.
        """
        from loopqkd.bb84 import PulseRecord, sift
        from loopqkd.quantumchannel import ClickOutcome

        rows = 0
        clicked = []
        with open(op.outputs["transcript_csv"], encoding="utf-8") as f:
            if (f.readline(), f.readline()) != (
                "# schema loopqkd.transcript.v1\n", TRANSCRIPT_HEADER + "\n"
            ):
                op.problems.append("transcript CSV lacks the loopqkd.transcript.v1 header")
                return
            try:
                for line in f:
                    index, rest = line.split(",", 1)
                    if int(index) != rows:
                        raise ValueError(f"index {index}")
                    if not rest.endswith(",none,0,\n"):
                        v = rest.rstrip("\n").split(",")
                        clicked.append(
                            PulseRecord(
                                index=rows,
                                alice_bit=int(v[0]),
                                alice_basis=int(v[1]),
                                bob_basis=int(v[2]),
                                phi_a=float(v[3]),
                                phi_b=float(v[4]),
                                outcome=ClickOutcome(v[5]),
                                sifted=v[6] == "1",
                                decoded_bit=int(v[7]) if v[7] else None,
                            )
                        )
                    rows += 1
                stats = sift(clicked, self.scenario.source.rep_rate).stats
            except (ValueError, IndexError) as exc:
                op.problems.append(f"transcript row {rows}: {exc}")
                return
        totals = {k: getattr(stats, k) for k in COUNT_FIELDS}
        if rows != self.w.pulses or totals != op.counts:
            op.problems.append(f"transcript recount {rows} rows {totals} != run CSV {op.counts}")

    def check_fit(self, op: Op) -> None:
        import yaml
        from loopqkd import harness

        try:
            fitted = harness.build_scenario(yaml.safe_load(op.outputs["fitted_yaml"].read_text("utf-8")))
        except (yaml.YAMLError, harness.ScenarioError) as exc:
            op.problems.append(f"fitted scenario does not load: {exc}")
            return
        got = harness.expected_for_scenario(fitted)
        if abs(got.raw_rate - CAL_TARGET_RAW) > CAL_REL_TOL * CAL_TARGET_RAW:
            op.problems.append(f"fitted raw rate {got.raw_rate!r} misses {CAL_TARGET_RAW}")
        if abs(got.qber - CAL_TARGET_QBER) > CAL_REL_TOL * CAL_TARGET_QBER:
            op.problems.append(f"fitted QBER {got.qber!r} misses {CAL_TARGET_QBER}")
        if fitted.seed != op.seed:
            op.problems.append(f"fitted scenario has seed {fitted.seed}, expected {op.seed}")

    def check_oracle(self, ops: list[Op], seed: int) -> dict:
        """Monte Carlo vs closed-form z-scores of sifted probability and QBER.

        Applies to the loop workloads (the ring's noise taps have no closed
        form) and pools the counts of every checked operation.  A pooled
        |z| > 3 happens by chance in one check of 370, and every run makes
        two checks, so over hundreds of runs some would fail with a correct
        engine.  An excursion is therefore confirmed on an independent sample
        of the same size (fresh seeds, engine called directly) before it
        counts; a real bias shows in both.  A confirmed excursion fails every
        pooled operation.
        """
        from loopqkd import harness

        pooled = [op for op in ops if op.counts is not None]
        if self.w.command != "run" or not pooled:
            return {}
        ex = harness.expected_for_scenario(self.scenario)

        def z_scores(samples):
            n = self.w.pulses * len(samples)
            sifted, errors, disclosed = (
                sum(c[k] for c in samples) for k in ("sifted_bits", "errors", "disclosed_bits")
            )
            p, q = ex.sifted_prob, ex.qber
            return {
                "sifted_prob": (sifted - n * p) / math.sqrt(n * p * (1.0 - p)),
                "qber": (errors - disclosed * q) / math.sqrt(disclosed * q * (1.0 - q)),
            }

        z = {"pooled": z_scores([op.counts for op in pooled])}
        beyond = [name for name, value in z["pooled"].items() if abs(value) > Z_LIMIT]
        if beyond:
            seeds = random.Random(f"confirm-{seed}")
            confirm = []
            for _ in pooled:
                report, _ = harness.run(self.scenario, seed=seeds.getrandbits(63), pulses=self.w.pulses)
                confirm.append({k: getattr(report.stats, k) for k in COUNT_FIELDS})
            z["confirmation"] = z_scores(confirm)
            for name in beyond:
                if abs(z["confirmation"][name]) > Z_LIMIT:
                    for op in pooled:
                        op.problems.append(
                            f"{name} z-score {z['pooled'][name]:.2f}, confirmed at "
                            f"{z['confirmation'][name]:.2f}, beyond {Z_LIMIT}"
                        )
        return z

    # -------------------------------------------------------------- series

    def series(self, seed: int, seconds: float, tracer=None) -> list[Op]:
        """The golden operation, then timed operations until ``seconds`` are measured.

        With a tracer, untraced and traced operations alternate, each at
        least ``MIN_OPS`` times.
        """
        seeds = random.Random(seed)
        ops = [self.run_op(self.scenario.seed)]  # golden check, and warm-up
        measured = 0.0
        ref = reference_seconds()
        while True:
            timed = ops[1:]
            untraced = sum(1 for op in timed if not op.traced)
            done = measured >= seconds and untraced >= MIN_OPS
            if tracer is not None:
                done = done and len(timed) - untraced >= MIN_OPS
            if done:
                return ops
            traced = tracer is not None and len(timed) % 2 == 1
            op = self.run_op(seeds.getrandbits(63), tracer if traced else None)
            after = reference_seconds()
            op.ref = (ref + after) / 2.0
            ref = after
            measured += op.wall
            ops.append(op)

    def setup_times(self) -> list[tuple[float, float]]:
        """(set-up seconds, reference kernel seconds) of fresh interpreters."""
        argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), str(self.scenario_path)]
        if self.w.partner:
            argv.append(self.w.partner)
        times = []
        for _ in range(SETUP_REPEATS + 1):  # the first one warms the bytecode cache
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
            setup, ref = done.stdout.split()
            times.append((float(setup), float(ref)))
        return times[1:]


# ------------------------------------------------------------------ metrics


def top_percentile(walls: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return {"samples": n}
    return {"samples": n, "percentile": math.floor(100.0 * (n - 10) / n), "value": sorted(walls)[n - 11]}


def layer_metrics(tracer, n_ops: int, scale: float, shares: dict, overhead: float) -> dict:
    """Per-layer metrics; span times are multiplied by ``scale`` (see reference.py)."""
    stats = tracer.stats

    def per_call_us(name):
        s = stats.get(name)
        return s.total * scale / s.calls * 1e6 if s and s.calls else 0.0

    def ns_per(name, key):
        s = stats.get(name)
        return s.total * scale / s.counts[key] * 1e9 if s and s.counts.get(key) else 0.0

    def per_op(name, attr):
        s = stats.get(name)
        return getattr(s, attr) / n_ops if s else 0.0

    engine = stats.get("session.run_session")
    taps = stats.get("loopnet.noise_taps")
    return {
        "loopmodel.probs_ns_per_pulse": ns_per("loopmodel.FringeCoefficients.probs", "elements"),
        "quantumchannel.no_click_ns_per_pulse": ns_per("quantumchannel.no_click_probabilities", "elements"),
        **{f"session.stage.{stage}_share": share for stage, share in shares.items()},
        "session.self_s": per_op("session.run_session", "self_time") * scale,
        "session.run_session.pulses_per_s": engine.counts["pulses"] / (engine.total * scale) if engine else 0.0,
        "loopnet.select_partner_us": per_call_us("loopnet.select_partner"),
        "loopnet.noise_taps_count": taps.counts["taps"] / taps.calls if taps else 0.0,
        "bb84.records_built": engine.counts["records"] / n_ops if engine else 0.0,
        "harness.transcript_csv_ns_per_row": ns_per("harness.transcript_csv", "rows"),
        "harness.build_scenario_us": per_call_us("harness.build_scenario"),
        "harness.calibrate.build_scenario_calls": per_op("harness.build_scenario", "calls_in_calibrate"),
        "quantumchannel.expected_session_us": per_call_us("quantumchannel.expected_session"),
        "harness.calibrate.oracle_calls": per_op("quantumchannel.expected_session", "calls_in_calibrate"),
        "loopmodel.fringe_coefficients_us": per_call_us("loopmodel.fringe_coefficients"),
        "harness.load_scenario_us": per_call_us("harness.load_scenario"),
        "trace_overhead_frac": overhead,
    }


def stage_replay(bench: Bench, op: Op) -> tuple[dict, str | None, dict]:
    """Stage shares of the engine, from a replay checked against ``op``'s counts.

    Returns (shares, problem, table); when the replay cannot be checked or
    does not match, every share is 0 and ``problem`` says why.
    """
    from loopqkd import loopnet
    from replay import STAGES, replay_session

    zeros = dict.fromkeys(STAGES, 0.0)
    if bench.w.command == "calibrate":  # never enters the engine
        return zeros, None, {}
    if op.counts is None:
        return zeros, "the traced operation's run CSV failed its checks; no replay", {}
    sc = bench.scenario
    params = sc.session_params(seed=op.seed, pulses=bench.w.pulses)
    if sc.ring is not None:
        config = loopnet.select_partner(sc.ring, bench.w.partner)
        noise = loopnet.noise_taps(sc.ring, bench.w.partner)
    else:
        config, noise = sc.loop, ()
    counts, spent, total = replay_session(config, params, noise, collect_records=bench.w.transcript)
    if counts != op.counts:
        return zeros, f"stage replay counts {counts} != run_session counts {op.counts}", {}
    table = {
        stage: {"share": spent[stage] / total, "ns_per_pulse": spent[stage] / params.pulses * 1e9}
        for stage in STAGES
    }
    table["total"] = {"seconds": total, "pulses_per_s": params.pulses / total}
    return {stage: spent[stage] / total for stage in STAGES}, None, table


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    top, sha = done.stdout.splitlines()
    return sha if Path(top).resolve() == ROOT else None


def stamp(workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="loopqkd benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_loopqkd()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    result: dict = {"stamp": stamp(args.workload, args.seed)}
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        bench = Bench(args.workload, Path(work))
        if args.trace == 0:
            setup = bench.setup_times()
            ops = bench.series(args.seed, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            from spans import Tracer

            tracer = Tracer()
            ops = bench.series(args.seed, args.seconds, tracer)
            replayed = next(op for op in ops if op.traced)
            shares, problem, table = stage_replay(bench, replayed)
            if problem:
                replayed.problems.append(problem)
        result["oracle_z"] = bench.check_oracle(ops, args.seed)

    timed = ops[1:]
    walls = [op.scaled for op in timed if not op.traced]
    failed = sum(1 for op in ops if op.problems)
    result.update(
        attempted=len(ops),
        failed=failed,
        fail_frac=failed / len(ops),
        problems=[f"seed {op.seed}: {p}" for op in ops for p in op.problems],
        op_seeds=[op.seed for op in ops],
        reference_s=REFERENCE_SECONDS,
        host_wall_s_samples=[op.wall for op in timed if not op.traced],
        reference_kernel_s_samples=[op.ref for op in timed if not op.traced],
        wall_s_samples=walls,
        wall_s_top=top_percentile(walls),
    )
    if args.trace == 0:
        pulses = bench.w.pulses or bench.scenario.pulses  # calibrate: the fitted scenario's
        values = {
            "pulses_per_s": statistics.median(pulses / w for w in walls),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(t * REFERENCE_SECONDS / ref for t, ref in setup),
        }
        result["setup_s_samples"] = setup
        listed = spec["end_to_end"]
    else:
        traced = [op for op in timed if op.traced]
        overhead = statistics.median(op.scaled for op in traced) / statistics.median(walls) - 1.0
        scale = statistics.median(REFERENCE_SECONDS / op.ref for op in traced)
        values = layer_metrics(tracer, len(traced), scale, shares, overhead)
        result.update(stage_replay=table, spans=tracer.summary(), raw_spans=tracer.spans)
        listed = spec["per_layer"]
        if table:
            print(f"stage replay of {args.workload} at seed {replayed.seed}:", file=sys.stderr)
            for stage, row in table.items():
                cells = "  ".join(f"{k} {v:.6g}" for k, v in row.items())
                print(f"  {stage:<14} {cells}", file=sys.stderr)
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    out_file = OUT / f"BENCH_{args.workload}_trace{args.trace}_seed{args.seed}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload:<15} {name:<42} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:<15} {'fail_frac':<42} {result['fail_frac']:.6g} fraction", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
