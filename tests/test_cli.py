import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from loopqkd import harness
from loopqkd.cli import _parse_grid, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
IDEAL = str(SCENARIOS / "paper_ideal.yaml")
NETWORK = str(SCENARIOS / "network_four_party.yaml")


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["run", IDEAL, "--pulses", "20000", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema loopqkd.run.v1"
    assert lines[1].startswith("digest,seed,pulses,")
    assert len(lines) == 3


def test_run_stdout_when_no_out(capsys):
    code = main(["run", IDEAL, "--pulses", "5000"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("# schema loopqkd.run.v1\n")
    assert "raw rate" in captured.err
    # the oracle's QBER is 0, a binomial of variance 0: no z-score
    assert "oracle sifted probability 0.0475813 (z " in captured.err
    assert captured.err.rstrip().endswith("QBER 0 (z n/a)")


def test_net_run_reports_the_oracle_with_z_scores(capsys):
    noisy = str(SCENARIOS.parent / "perfbench" / "scenarios" / "ring_noisy.yaml")
    assert main(["net-run", noisy, "--partner", "alice", "--pulses", "100000"]) == 0
    err = capsys.readouterr().err
    oracle = (
        r"oracle sifted probability 0\.0176895 \(z ([-+][\d.]+)\), "
        r"QBER 0\.180627 \(z ([-+][\d.]+)\)$"
    )
    found = re.search(oracle, err.rstrip())
    assert found and all(abs(float(z)) < 3.0 for z in found.groups())


def test_same_seed_gives_byte_identical_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", IDEAL, "--pulses", "30000", "--seed", "99", "--out", str(a)]) == 0
    assert main(["run", IDEAL, "--pulses", "30000", "--seed", "99", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert main(["run", IDEAL, "--pulses", "30000", "--seed", "100", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_transcript_flag(tmp_path):
    t = tmp_path / "t.csv"
    code = main(["run", IDEAL, "--pulses", "300", "--out", str(tmp_path / "r.csv"), "--transcript", str(t)])
    assert code == 0
    lines = t.read_text().splitlines()
    assert lines[0] == "# schema loopqkd.transcript.v1"
    assert len(lines) == 302


def test_validation_failures_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("source: {mu: -2}\n")
    assert main(["run", str(bad)]) == 1
    assert "source.mu" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.yaml")]) == 1
    assert main(["sweep", IDEAL, "--axis", "nope", "--grid", "0:1:3"]) == 1
    assert main(["net-run", NETWORK, "--partner", "mallory"]) == 1
    assert main(["net-run", NETWORK, "--partner", ""]) == 1  # not the file's partner
    assert main(["sweep", IDEAL, "--axis", "source.mu", "--grid", "0:1"]) == 1
    assert main(["calibrate", IDEAL, "--target-raw", "-5", "--target-qber", "0.05"]) == 1


@pytest.mark.parametrize("command", ["net-run", "fringe"])
def test_partner_on_loop_scenario_exits_1(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    loop = str(SCENARIOS / "paper_calibrated.yaml")
    assert main([command, loop, "--partner", "bogus", "--out", str(out)]) == 1
    assert "partner 'bogus' given, but a loop scenario has no partner" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_range_seed_exits_1(tmp_path, capsys):
    for seed in ("-1", str(2**64)):
        out = tmp_path / "r.csv"
        assert main(["run", IDEAL, "--pulses", "100", "--seed", seed, "--out", str(out)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


def test_usage_errors_exit_1():
    assert main(["sweep", IDEAL, "--grid", "0:1:2"]) == 1  # missing --axis
    assert main(["no-such-command"]) == 1
    assert main(["--help"]) == 0


def test_runtime_errors_exit_2(tmp_path):
    code = main(
        [
            "run",
            IDEAL,
            "--pulses",
            "100",
            "--out",
            str(tmp_path / "r.csv"),
            "--transcript",
            str(tmp_path / "no-such-dir" / "t.csv"),
        ]
    )
    assert code == 2


def test_sweep_comma_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", IDEAL, "--axis", "source.mu", "--grid", "0.05,0.1,0.2", "--pulses", "5000", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema loopqkd.sweep.v1"
    assert len(lines) == 5
    assert lines[2].startswith("source.mu,0.05,")


def test_grid_start_stop_count_includes_stop():
    assert _parse_grid("0:1:3") == [0.0, 0.5, 1.0]


def test_sweep_refuses_an_empty_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", IDEAL, "--axis", "source.mu", "--grid", ",", "--out", str(out)]) == 1
    assert "sweep grid is empty" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_the_seed_axis(tmp_path, capsys):
    # every grid point shares one master seed; a seed axis would break that
    out = tmp_path / "sweep.csv"
    code = main(["sweep", IDEAL, "--axis", "seed", "--grid", "1,2", "--pulses", "1000", "--out", str(out)])
    assert code == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sweep", IDEAL, "--axis", "nope", "--grid", "1"]) == 1
    sweepable = capsys.readouterr().err.partition("sweepable parameters: ")[2]
    assert "source.mu" in sweepable and "seed" not in sweepable.split(", ")


def test_sweep_refuses_pulses_over_a_pulse_count_axis(tmp_path, capsys):
    # --pulses would run the same count at every point, under a different digest each
    out = tmp_path / "sweep.csv"
    argv = ["sweep", IDEAL, "--axis", "protocol.pulses", "--grid", "1000,2000,3000"]
    assert main(argv + ["--pulses", "500", "--out", str(out)]) == 1
    assert "overridden by --pulses 500" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--out", str(out)]) == 0


def test_sweep_refuses_a_key_that_changes_nothing(tmp_path, capsys):
    # paper_ideal has no eavesdropper, so its attacked fraction is read by nothing
    out = tmp_path / "sweep.csv"
    argv = ["sweep", IDEAL, "--axis", "eve.fraction", "--grid", "0:1:3", "--pulses", "1000"]
    assert main(argv + ["--out", str(out)]) == 1
    assert "sweep eve.fraction=0.5: eve.fraction 0.5 has no effect" in capsys.readouterr().err
    assert not out.exists()
    raw = yaml.safe_load(Path(NETWORK).read_text(encoding="utf-8"))
    raw["ring"]["entities"][2]["disturbance_kind"] = "uniform"
    uniform = tmp_path / "uniform.yaml"
    uniform.write_text(yaml.safe_dump(raw), encoding="utf-8")
    argv = ["sweep", str(uniform), "--axis", "ring.entities.2.disturbance_sigma", "--grid", "0,1"]
    assert main(argv + ["--pulses", "1000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ring.entities[2].disturbance_sigma 1 has no effect: a uniform module" in err
    assert not out.exists()


def test_sweep_across_the_rep_rate_conflict(tmp_path):
    # at 250 kHz pulse k's second pass at Alice comes 83 ns after pulse k + 1's first
    out = tmp_path / "sweep.csv"
    calibrated = str(SCENARIOS / "paper_calibrated.yaml")
    argv = ["sweep", calibrated, "--axis", "source.rep_rate", "--grid", "100000,250000"]
    assert main(argv + ["--pulses", "200000", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()[1:]
    apart, meeting = (dict(zip(header.split(","), row.split(","))) for row in rows)
    assert float(apart["qber"]) < 0.1
    n = int(meeting["sifted_bits"])
    assert n > 2000
    assert abs(float(meeting["qber"]) - 0.5) < 3.0 * math.sqrt(0.25 / n)


def test_sweep_across_the_timing_conflict(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", IDEAL, "--axis", "loop.delay_length", "--grid", "0,800", "--pulses", "100000", "--out", str(out)]
    )
    assert code == 0
    header, *rows = out.read_text().splitlines()[1:]
    meeting, staggered = (dict(zip(header.split(","), row.split(","))) for row in rows)
    n = int(meeting["sifted_bits"])
    assert n > 4000
    assert abs(float(meeting["qber"]) - 0.5) < 3.0 * math.sqrt(0.25 / n)
    assert float(staggered["qber"]) == 0.0


def test_fringe_command(tmp_path, capsys):
    code = main(["fringe", IDEAL, "--points", "12"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# schema loopqkd.fringe.v1"
    assert len(out) == 14
    first = out[2].split(",")
    assert first[0] == "0" and first[1] == "1" and first[2] == "0"


def test_net_run_command(tmp_path):
    out = tmp_path / "net.csv"
    code = main(["net-run", NETWORK, "--partner", "george", "--pulses", "20000", "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[2].split(",")
    assert int(row[4]) > 0  # sifted bits


def test_calibrate_command(tmp_path):
    out = tmp_path / "fitted.yaml"
    code = main(
        [
            "calibrate",
            str(SCENARIOS / "calibration_base.yaml"),
            "--target-raw",
            "1200",
            "--target-qber",
            "0.054",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert "attenuator_transmittance" in text
    assert "rotation" in text
    rerun = main(["run", str(out), "--pulses", "50000", "--out", str(tmp_path / "rr.csv")])
    assert rerun == 0


def test_calibrate_checks_qber_at_the_forced_transmittance(tmp_path, capsys):
    # the QBER floor is 0.002 at the base attenuator, but the rate target
    # forces it so low that the dark counts alone put the QBER above 0.02
    raw = yaml.safe_load((SCENARIOS / "calibration_base.yaml").read_text(encoding="utf-8"))
    raw["detectors"]["dark_prob"] = 1e-4
    base, out = tmp_path / "dark.yaml", tmp_path / "fitted.yaml"
    base.write_text(yaml.safe_dump(raw), encoding="utf-8")
    argv = ["calibrate", str(base), "--target-raw", "50", "--target-qber", "0.02"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert (
        "target QBER 0.02 is not achievable at the raw rate 50 Hz; "
        "this scenario reaches [0.09991" in err
    )
    assert not out.exists()


def test_calibrate_that_does_not_converge_exits_1(tmp_path, capsys, monkeypatch):
    # no residual meets a zero tolerance, so all 12 rounds run
    monkeypatch.setattr(harness, "_CAL_REL_TOL", 0.0)
    out = tmp_path / "fitted.yaml"
    argv = ["calibrate", str(SCENARIOS / "calibration_base.yaml"), "--target-raw", "1200"]
    assert main(argv + ["--target-qber", "0.054", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "calibrate did not converge: it reaches raw rate 1200 Hz and QBER 0.054" in err
    assert not out.exists()


def test_console_entry_point_runs_in_subprocess(tmp_path):
    # the child imports the package from this checkout, as the tests do
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "loopqkd", "run", IDEAL, "--pulses", "2000"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# schema loopqkd.run.v1")


def test_overflowing_source_pol_exits_1(tmp_path, capsys):
    # |s|^2 overflows to inf and fails the normalization check by name
    raw = yaml.safe_load(Path(IDEAL).read_text(encoding="utf-8"))
    raw["loop"]["source_pol"] = [[1e300, 0], [0, 0]]
    path, out = tmp_path / "s.yaml", tmp_path / "run.csv"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["run", str(path), "--pulses", "64", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "loop.source_pol: polarization must be normalized, |s|^2 = inf" in err
    assert not out.exists()


def test_overflowing_disturbance_sigma_runs_as_a_uniform_tap(tmp_path, capsys):
    # sigma^2 overflows to inf, whose wrapped phase is uniform: the oracle
    # then weighs the tap as it weighs a uniform one
    noisy = SCENARIOS.parent / "perfbench" / "scenarios" / "ring_noisy.yaml"
    raw = yaml.safe_load(noisy.read_text(encoding="utf-8"))
    oracle = {}
    for variant, david in (("huge", {"disturbance_sigma": 1e300}), ("uniform", {"disturbance_kind": "uniform"})):
        raw["ring"]["entities"][1] = {"id": "david", **david}
        path, out = tmp_path / f"{variant}.yaml", tmp_path / f"{variant}.csv"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert main(["net-run", str(path), "--partner", "alice", "--pulses", "64", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        oracle[variant] = re.search(r"oracle sifted probability (\S+) \(z \S+\), QBER (\S+) \(z", err).groups()
    assert oracle["huge"] == oracle["uniform"]
