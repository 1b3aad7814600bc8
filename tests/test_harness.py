import copy
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from loopqkd import harness
from loopqkd.harness import (
    ScenarioError,
    build_scenario,
    calibrate,
    dump_scenario,
    expected_for_scenario,
    fringe,
    fringe_csv,
    load_scenario,
    numeric_axes,
    run,
    run_csv,
    sweep,
    sweep_csv,
    transcript_csv,
)
from loopqkd.loopmodel import fringe_coefficients

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, text, name="s.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------- loading


def test_minimal_file_gets_ideal_defaults(tmp_path):
    path = write_scenario(tmp_path, "source: {mu: 0.05}\nprotocol: {pulses: 1234}\n")
    sc = load_scenario(path)
    assert sc.source.mu == 0.05
    assert sc.pulses == 1234
    assert sc.source.rep_rate == 100e3
    assert sc.source.wavelength == pytest.approx(830e-9)
    assert sc.detectors.efficiency == 1.0
    assert sc.detectors.dark_prob == 0.0
    assert sc.effective["loop"]["upper_length"] == 200.0
    assert sc.effective["loop"]["lower_length"] == 200.0
    assert sc.effective["loop"]["delay_length"] == 800.0
    assert sc.effective["loop"]["loss_db_per_km"] == 0.0
    assert sc.effective["loop"]["attenuator_transmittance"] == 1.0
    assert fringe_coefficients(sc.loop).visibility == pytest.approx(1.0, abs=1e-12)


def test_shipped_paper_scenario_matches_bench_geometry():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    assert sc.source.mu == 0.1
    assert sc.source.rep_rate == 100e3
    assert sc.effective["loop"]["upper_length"] == 200.0
    assert sc.effective["loop"]["lower_length"] == 200.0
    assert sc.effective["loop"]["delay_length"] == 800.0


def test_negative_mu_rejected(tmp_path):
    path = write_scenario(tmp_path, "source: {mu: -1.0}\n")
    with pytest.raises(ScenarioError, match="source.mu"):
        load_scenario(path)


def test_unknown_keys_rejected_with_path(tmp_path):
    path = write_scenario(tmp_path, "source: {mu: 0.1, brightness: 3}\n")
    with pytest.raises(ScenarioError, match=r"source.*'brightness'"):
        load_scenario(path)
    path = write_scenario(tmp_path, "loop: {upper_fibre: 100}\n", name="s2.yaml")
    with pytest.raises(ScenarioError, match="upper_fibre"):
        load_scenario(path)


def test_parse_error_carries_location(tmp_path):
    path = write_scenario(tmp_path, "source: {mu: 0.1\nprotocol: [}\n")
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


def test_loop_and_ring_are_exclusive(tmp_path):
    path = write_scenario(
        tmp_path,
        "loop: {upper_length: 100}\nring: {entities: [{id: a}], link_lengths: [1, 1]}\n",
    )
    with pytest.raises(ScenarioError, match="not both"):
        load_scenario(path)


def test_bare_off_is_accepted_for_eve_strategy(tmp_path):
    # YAML 1.1 parses unquoted `off` as boolean false; the loader maps it back
    path = write_scenario(tmp_path, "eve: {strategy: off, fraction: 0.0}\n")
    sc = load_scenario(path)
    assert sc.eve.strategy.value == "off"


def test_ring_scenario_loads_and_validates():
    sc = load_scenario(str(SCENARIOS / "network_four_party.yaml"))
    assert sc.ring is not None
    assert sc.partner == "alice"
    assert sc.ring.entity_ids() == ("alice", "david", "fox", "george")
    with pytest.raises(ScenarioError, match="partner"):
        build_scenario(
            {
                "ring": {
                    "partner": "nobody",
                    "entities": [{"id": "a"}],
                    "link_lengths": [1.0, 1.0],
                }
            }
        )


def test_dump_and_reload_roundtrip():
    sc = load_scenario(str(SCENARIOS / "paper_calibrated.yaml"))
    again = build_scenario(yaml.safe_load(dump_scenario(sc.effective)))
    assert again.digest == sc.digest


# ---------------------------------------------------------------- digest


def test_digest_covers_every_effective_parameter():
    base = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    seen = {base.digest}
    for axis in numeric_axes(base.effective):
        if axis.startswith("loop.source_pol"):
            continue  # bumping one component alone breaks normalization
        eff = copy.deepcopy(base.effective)
        harness._set_path(eff, axis, 0.31 if "seed" not in axis and "pulses" not in axis else 7)
        try:
            changed = build_scenario(eff)
        except ScenarioError:
            continue
        assert changed.digest != base.digest, axis
        assert changed.digest not in seen, axis
        seen.add(changed.digest)
    for mutate in (
        lambda e: e["eve"].__setitem__("strategy", "intercept_resend"),
        lambda e: e["protocol"].__setitem__("double_click_policy", "random_assign"),
        lambda e: e["loop"].__setitem__("source_pol", [[0.0, 0.0], [1.0, 0.0]]),
        lambda e: e["loop"].__setitem__("delay_jones", {"kind": "rotation", "angle": 0.2}),
    ):
        eff = copy.deepcopy(base.effective)
        mutate(eff)
        assert build_scenario(eff).digest != base.digest


# ---------------------------------------------------------------- running


def test_run_matches_closed_form_oracle():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    exp = expected_for_scenario(sc)
    assert exp.sifted_prob == pytest.approx(0.5 * (1 - math.exp(-0.1)), abs=1e-12)
    pulses = 300_000
    report, _ = run(sc, pulses=pulses)
    sd = math.sqrt(pulses * exp.sifted_prob * (1 - exp.sifted_prob))
    assert abs(report.stats.sifted_bits - pulses * exp.sifted_prob) < 3 * sd
    assert report.stats.errors == 0
    assert report.digest == sc.digest


def test_run_is_reproducible():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    r1, _ = run(sc, pulses=50_000)
    r2, _ = run(sc, pulses=50_000)
    assert r1.stats == r2.stats
    assert run_csv(r1) == run_csv(r2)


def test_ring_run_needs_partner():
    sc = load_scenario(str(SCENARIOS / "network_four_party.yaml"))
    report, _ = run(sc, pulses=20_000)  # partner from file
    assert report.stats.errors == 0
    eff = copy.deepcopy(sc.effective)
    eff["ring"]["partner"] = None
    no_partner = build_scenario(eff)
    with pytest.raises(ScenarioError, match="partner"):
        run(no_partner, pulses=1000)
    report2, _ = run(no_partner, pulses=20_000, partner="david")
    assert report2.stats.sifted_bits > 0


# ---------------------------------------------------------------- fringe


def test_fringe_reproduces_interference_law():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    rows = fringe(sc, points=360)
    assert len(rows) == 360
    for row in rows:
        want = math.cos(row["delta_phi"] / 2.0) ** 2
        assert abs(row["p1"] - want) < 1e-12
        assert abs(row["p1"] + row["p2"] - 1.0) < 1e-12
    text = fringe_csv(rows)
    assert text.startswith("# schema loopqkd.fringe.v1\n")


# ---------------------------------------------------------------- sweeps


def test_sweep_unknown_axis_lists_options():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    with pytest.raises(ScenarioError, match="source.mu"):
        sweep(sc, "loop.detuning", [1.0])


def test_sweep_link_length_decays_with_db_loss(tmp_path):
    path = write_scenario(
        tmp_path,
        "source: {mu: 0.05}\nloop: {loss_db_per_km: 2.0}\nprotocol: {pulses: 200000}\n",
    )
    sc = load_scenario(path)
    lengths = [0.0, 10_000.0, 25_000.0, 50_000.0]
    report = sweep(sc, "loop.upper_length", lengths)
    oracle_rates = []
    for L in lengths:
        eff = copy.deepcopy(sc.effective)
        eff["loop"]["upper_length"] = L
        oracle_rates.append(expected_for_scenario(build_scenario(eff)).raw_rate)
    assert all(b < a for a, b in zip(oracle_rates, oracle_rates[1:]))
    # once clicks are rare the rate follows the dB arithmetic exponentially
    for (L0, r0), (L1, r1) in zip(
        zip(lengths[1:], oracle_rates[1:]), zip(lengths[2:], oracle_rates[2:])
    ):
        want = 10 ** (-2.0 * ((L1 - L0) / 1000.0) / 10.0)
        assert r1 / r0 == pytest.approx(want, rel=2e-3)
    # Monte Carlo follows the oracle within sampling error
    for row, want in zip(report.rows, oracle_rates):
        p = want / sc.source.rep_rate
        sd_rate = sc.source.rep_rate * math.sqrt(p * (1 - p) / row["pulses"])
        assert abs(row["raw_rate_hz"] - want) < 3.5 * sd_rate + 1e-9


def test_sweep_eve_fraction_is_linear():
    base = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    eff = copy.deepcopy(base.effective)
    eff["eve"]["strategy"] = "intercept_resend"
    armed = build_scenario(eff)
    report = sweep(armed, "eve.fraction", [0.0, 0.5, 1.0], pulses=400_000)
    q = [row["qber"] for row in report.rows]
    assert q[0] == 0.0
    assert q[1] == pytest.approx(0.125, abs=0.01)
    assert q[2] == pytest.approx(0.25, abs=0.01)


def test_sweep_rows_carry_per_point_digests():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    report = sweep(sc, "source.mu", [0.05, 0.1], pulses=10_000)
    assert report.rows[0]["digest"] != report.rows[1]["digest"]
    text = sweep_csv(report)
    assert text.splitlines()[0] == "# schema loopqkd.sweep.v1"
    assert len(text.splitlines()) == 4


# ---------------------------------------------------------------- calibrate


def test_calibrate_hits_paper_targets_exactly_in_expectation():
    sc = load_scenario(str(SCENARIOS / "calibration_base.yaml"))
    result = calibrate(sc, target_raw_hz=1200.0, target_qber=0.054)
    assert result.expected_raw_rate == pytest.approx(1200.0, rel=1e-6)
    assert result.expected_qber == pytest.approx(0.054, rel=1e-6)
    # 1200 Hz at 100 kHz repetition is a per-pulse sifted probability of 0.012
    assert result.expected_sifted_prob == pytest.approx(0.012, rel=1e-6)
    # the error target inverts to a visibility near 1 - 2*qber
    assert result.visibility == pytest.approx(0.892, abs=1e-3)
    assert result.transmittance < 1.0


def test_calibrate_round_trip_through_monte_carlo():
    sc = load_scenario(str(SCENARIOS / "calibration_base.yaml"))
    result = calibrate(sc, target_raw_hz=1200.0, target_qber=0.054)
    fitted = build_scenario(copy.deepcopy(result.effective))
    pulses = 2_000_000
    report, _ = run(fitted, pulses=pulses)
    p = 0.012
    sd_rate = sc.source.rep_rate * math.sqrt(p * (1 - p) / pulses)
    assert abs(report.stats.raw_rate - 1200.0) < 3 * sd_rate
    sd_q = math.sqrt(0.054 * 0.946 / (pulses * p))
    assert abs(report.stats.qber - 0.054) < 3 * sd_q


def test_calibrate_rejects_infeasible_targets():
    sc = load_scenario(str(SCENARIOS / "calibration_base.yaml"))
    with pytest.raises(ScenarioError, match="not achievable"):
        calibrate(sc, target_raw_hz=50_000.0, target_qber=0.054)
    with pytest.raises(ScenarioError, match="QBER.*not achievable"):
        calibrate(sc, target_raw_hz=1200.0, target_qber=0.0)  # darks forbid zero
    with pytest.raises(ScenarioError, match="QBER"):
        calibrate(sc, target_raw_hz=1200.0, target_qber=0.9)


def test_fitted_shipped_scenario_matches_calibration():
    shipped = load_scenario(str(SCENARIOS / "paper_calibrated.yaml"))
    exp = expected_for_scenario(shipped)
    assert exp.raw_rate == pytest.approx(1200.0, rel=1e-6)
    assert exp.qber == pytest.approx(0.054, rel=1e-6)
    assert fringe_coefficients(shipped.loop).visibility == pytest.approx(0.8916, abs=2e-4)


# ---------------------------------------------------------------- CSV


def test_csv_formats_nine_significant_digits():
    assert harness._fmt(0.123456789123) == "0.123456789"
    assert harness._fmt(1200.0) == "1200"
    assert harness._fmt(float("nan")) == "nan"
    assert harness._fmt(42) == "42"


def test_transcript_csv_round_trips_outcomes():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    report, transcript = run(sc, pulses=500, collect_records=True)
    text = transcript_csv(transcript)
    lines = text.splitlines()
    assert lines[0] == "# schema loopqkd.transcript.v1"
    assert len(lines) == 502
    sifted_rows = [ln for ln in lines[2:] if ln.split(",")[7] == "1"]
    assert len(sifted_rows) == report.stats.sifted_bits
