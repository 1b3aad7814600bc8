"""Byte-level golden outputs of ``run`` and ``net-run`` through ``cli.main``.

Each case runs the CLI in process and compares the sha256 of every file it
writes with a hash recorded from the per-pulse engine (complex exponential
and no-click exponentials evaluated on every pulse).  The engine's cell
table and its noise-tap path must reproduce those bytes exactly, at the
default seeds of the shipped scenarios and on a test-local ring that puts a
noise tap, an eavesdropper, ``random_assign`` and a disclosed subset below
one to work together.  A direct ``run_session`` transcript covers what the
CLI cases do not: several batches and ``swap_detector_bits``.  The fitted
scenario that ``calibrate`` writes is pinned the same way, on the shipped
calibration base and on a base with birefringent links, loss, an unbalanced
coupler and an elliptical source.
"""

import hashlib
import io
import math
from pathlib import Path

import pytest
import yaml

from loopqkd import harness
from loopqkd.bb84 import EveConfig, EveStrategy
from loopqkd.cli import main
from loopqkd.harness import transcript_csv
from loopqkd.jones import rotator
from loopqkd.loopmodel import fringe_coefficients, standard_loop
from loopqkd.quantumchannel import DetectorParams, DoubleClickPolicy, SourceParams
from loopqkd.session import DisturbanceKind, NoiseTap, SessionParams, run_session

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Bob keys with alice (david's Gaussian tap is live) or with david (no live
# tap, so every pulse goes through the cell table, Eve included); fox's
# zero-sigma tap is always dead.
NOISY_RING = """\
seed: 424242
source: {mu: 0.3, rep_rate: 100000.0}
detectors: {efficiency: 0.6, dark_prob: 1.0e-4}
protocol: {pulses: 200000, double_click_policy: random_assign, disclosed_fraction: 0.4}
ring:
  delay_length: 800.0
  coupler_ratio: 0.45
  link_lengths: [150.0, 100.0, 100.0, 100.0, 150.0]
  entities:
    - {id: alice}
    - {id: david, disturbance_sigma: 0.3, disturbance_kind: gaussian}
    - {id: fox, disturbance_sigma: 0.0, insertion_transmittance: 0.9}
    - {id: george}
eve: {strategy: intercept_resend, fraction: 0.35}
"""

# case id -> (argv after the scenario path, {output name: sha256})
CASES = {
    "paper_ideal": (
        ["run", SCENARIOS / "paper_ideal.yaml", "--pulses", "200000"],
        {
            "run.csv": "e70fdf4c0e0277472967c6287462646dbda6bea07d884f7989b9baf784004d9e",
        },
    ),
    "paper_calibrated": (
        ["run", SCENARIOS / "paper_calibrated.yaml", "--pulses", "200000"],
        {
            "run.csv": "e2aba8a9e82867504285f99b9a31130126825a06b31dd58d41a106ba73d74372",
        },
    ),
    "calibration_base": (
        ["run", SCENARIOS / "calibration_base.yaml", "--pulses", "200000"],
        {
            "run.csv": "6d6b0854eea3a4a19e1ecdc961a871e365272a8fcbc7a1fd46f97974d1d0927d",
        },
    ),
    "network_four_party": (
        ["net-run", SCENARIOS / "network_four_party.yaml", "--partner", "alice", "--pulses", "200000"],
        {
            "run.csv": "7ce46dd3b562bffc26867308ce7fd56fc898595c423a25976216c1762cd0b9aa",
        },
    ),
    "paper_calibrated_transcript": (
        ["run", SCENARIOS / "paper_calibrated.yaml", "--pulses", "3000", "--seed", "5"],
        {
            "run.csv": "1cae275a5f104992fb783bf78152f4df87971755c93679eccb8777c3b885fffb",
            "transcript.csv": "7144aa875808a35232d903b5addccb9cf88d6439d81f4d9690e12db9f782b5ed",
        },
    ),
    "noisy_ring_alice": (
        ["net-run", "NOISY_RING", "--partner", "alice"],
        {
            "run.csv": "991ae8a839ab0c0e604987328d00febae08549c80061ceb711d3b029061df9af",
        },
    ),
    "noisy_ring_david": (
        ["net-run", "NOISY_RING", "--partner", "david"],
        {
            "run.csv": "1455c38f461d981d16bc093f7b76e58e1db93e70d3780603a2c6dc1c0271b68b",
        },
    ),
    "noisy_ring_alice_transcript": (
        ["net-run", "NOISY_RING", "--partner", "alice", "--pulses", "3000"],
        {
            "run.csv": "976abcdd3d3ac46b69680d5abd382d51bc65e60592b51e2e716d84b4a17aa48e",
            "transcript.csv": "ecd53b3648786d4db7e4dcf8877015e956b7ea9dfd938f6b0bbc21d4b864869c",
        },
    ),
}


# Not trivial for the fit: Haar-random link birefringence, fiber loss, a
# coupler off one half and a source off the horizontal axis.
BIREFRINGENT_BASE = """\
seed: 20011215
source: {mu: 0.1, rep_rate: 100000.0, wavelength: 8.3e-07}
detectors: {efficiency: 0.45, dark_prob: 1.0e-05}
protocol: {pulses: 10000000, double_click_policy: discard, disclosed_fraction: 1.0}
loop:
  loss_db_per_km: 1.0
  coupler_ratio: 0.49
  source_pol: [[0.6, 0.0], [0.0, 0.8]]
  upper_jones: {kind: random_unitary, seed: 2}
  lower_jones: {kind: random_unitary, seed: 12}
eve: {strategy: "off", fraction: 0.0}
"""

# base -> sha256 of the fitted YAML for 1200 Hz raw key at QBER 0.054; the
# shipped base's fit is the paper_calibrated scenario's dump
CALIBRATE_CASES = {
    "calibration_base": "62ced0108c96e1c122e5b28e8a9615e264d4d7464200036c406eff9dd925d137",
    "birefringent_base": "964df6b5f7fc8f5a8378407e06aaa32d39a1e1f62ddd7205db434432078e515e",
}


def run_case(case: str, tmp_path: Path) -> dict[str, str]:
    """Run one case through the CLI; return the sha256 of each output file."""
    argv, want = CASES[case]
    ring = tmp_path / "noisy_ring.yaml"
    ring.write_text(NOISY_RING)
    argv = [str(ring) if a == "NOISY_RING" else str(a) for a in argv]
    argv += ["--out", str(tmp_path / "run.csv")]
    if "transcript.csv" in want:
        argv += ["--transcript", str(tmp_path / "transcript.csv")]
    assert main(argv) == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_golden(case, tmp_path):
    assert run_case(case, tmp_path) == CASES[case][1]


@pytest.mark.parametrize("case", sorted(CALIBRATE_CASES))
def test_calibrate_output_bytes_match_golden(case, tmp_path):
    base = SCENARIOS / "calibration_base.yaml"
    if case == "birefringent_base":
        base = tmp_path / "base.yaml"
        base.write_text(BIREFRINGENT_BASE)
    out = tmp_path / "fitted.yaml"
    argv = ["calibrate", str(base), "--target-raw", "1200", "--target-qber", "0.054"]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CALIBRATE_CASES[case]


def test_calibrate_reports_the_fitted_loops_visibility():
    # the birefringent links lower the visibility on their own, so the
    # rotation's cos(2 * angle), 0.99581 here, is not the fitted loop's
    base = harness.build_scenario(yaml.safe_load(BIREFRINGENT_BASE))
    result = harness.calibrate(base, target_raw_hz=1200.0, target_qber=0.054)
    fitted = harness.build_scenario(result.effective)
    assert result.visibility == fringe_coefficients(fitted.loop).visibility
    assert result.visibility == pytest.approx(0.98002, abs=1e-5)
    assert math.cos(2.0 * result.rotation_angle) == pytest.approx(0.99581, abs=1e-5)


def test_transcript_chunks_keep_the_bytes(monkeypatch, tmp_path):
    # 3000 rows in chunks of 1024: two full chunks and a short one
    monkeypatch.setattr(harness, "TRANSCRIPT_CHUNK_ROWS", 1024)
    case = "paper_calibrated_transcript"
    assert run_case(case, tmp_path) == CASES[case][1]


# 5003 pulses in batches of 1 << 10: four full batches and a short one,
# each on its own substreams, with Eve, random_assign, swapped detector
# bits and a disclosed subset of one half.
MULTI_BATCH_TRANSCRIPT = "b8720070ac46186f0054e65d4a7ac3e2acb2a5f3ad43a6de12bafd8b301380b4"


def test_multi_batch_transcript_matches_golden():
    cfg = standard_loop(delay_jones=rotator(0.2), attenuator_transmittance=0.8)
    params = SessionParams(
        pulses=5003,
        seed=2718,
        source=SourceParams(mu=0.8),
        detectors=DetectorParams(
            efficiency=0.7, dark_prob=1e-3, double_click_policy=DoubleClickPolicy.RANDOM_ASSIGN
        ),
        eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=0.3),
        disclosed_fraction=0.5,
        swap_detector_bits=True,
        batch_size=1 << 10,
    )
    _, transcript = run_session(cfg, params, collect_records=True)
    out = io.StringIO()
    transcript_csv(transcript, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == MULTI_BATCH_TRANSCRIPT


# Engine pins: case id -> (loop keywords, SessionParams keywords, noise taps,
# sha256 of the SessionStats repr plus the transcript CSV).  The hashes were
# taken from the engine that decided every pulse's outcome from all three
# thresholds and drew its choice bits with ``Generator.integers``.  The
# matrix crosses Eve at fractions 0, 0.3 and 1, both double-click policies,
# swapped detector bits, a disclosed half, Gaussian and uniform taps, batch
# sizes 1, 7, 1000 and 1 << 17 over odd pulse counts, a session in which no
# gate clicks and one in which every gate does.
_TILTED = dict(delay_jones=rotator(0.25), attenuator_transmittance=0.6)
_ASSIGN = DoubleClickPolicy.RANDOM_ASSIGN
ENGINE_PINS = {
    "batch_1": (
        _TILTED,
        dict(pulses=301, batch_size=1, source=SourceParams(mu=0.9)),
        (),
        "e88fc039d751aae34c56e115198df0b62de9084c6684597b236f81b24c0ff13b",
    ),
    "eve_0_batch_7": (
        _TILTED,
        dict(
            pulses=1003,
            batch_size=7,
            source=SourceParams(mu=0.7),
            eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=0.0),
        ),
        (),
        "529adea6ddfa4a0a4c690809d13000b21a0e6a78ade7a50de784af6adff6dac6",
    ),
    "eve_03_assign_batch_1000": (
        _TILTED,
        dict(
            pulses=20_001,
            batch_size=1000,
            source=SourceParams(mu=0.8),
            detectors=DetectorParams(efficiency=0.7, dark_prob=1e-3, double_click_policy=_ASSIGN),
            eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=0.3),
        ),
        (),
        "137978eb125d38e8527032e2f4d02a71f4570ddd0b3dc597c30491bb66478b0d",
    ),
    "eve_1_swap_half_disclosed_two_batches": (
        {},
        dict(
            pulses=(1 << 17) + 3001,
            source=SourceParams(mu=0.3),
            detectors=DetectorParams(efficiency=0.5, dark_prob=1e-4),
            eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=1.0),
            disclosed_fraction=0.5,
            swap_detector_bits=True,
        ),
        (),
        "3003eb8236c8d6a773984e73002dceb4e17c6f0dff6a302036082a4265f2fd1d",
    ),
    "gaussian_tap_eve_assign_half_disclosed": (
        _TILTED,
        dict(
            pulses=30_001,
            batch_size=1000,
            source=SourceParams(mu=1.5),
            detectors=DetectorParams(efficiency=0.6, dark_prob=1e-3, double_click_policy=_ASSIGN),
            eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=0.3),
            disclosed_fraction=0.5,
        ),
        (NoiseTap(sigma=0.4, tag=1),),
        "2aa4ab7cc4eed59aadb5f75f76d827dc1352976d0d9ef1e7f3dd916a6b62d974",
    ),
    "uniform_and_gaussian_taps_swap_batch_7": (
        {},
        dict(
            pulses=999,
            batch_size=7,
            source=SourceParams(mu=0.6),
            detectors=DetectorParams(double_click_policy=_ASSIGN),
            swap_detector_bits=True,
        ),
        (NoiseTap(sigma=0.0, kind=DisturbanceKind.UNIFORM, tag=0), NoiseTap(sigma=1.1, tag=3)),
        "64ac9251bd03e46a91edaf3b2c55f83834b64c7e636c2ba05a4cf02eb03aab08",
    ),
    "no_gate_clicks": (
        _TILTED,
        dict(pulses=20_001, batch_size=1000, source=SourceParams(mu=0.0), disclosed_fraction=0.5),
        (),
        "fc5d273ec6384088f2b961f7701fc154897ed481f452f60271d8bfb3bef63056",
    ),
    "every_gate_clicks": (
        _TILTED,
        dict(
            pulses=5001,
            batch_size=1000,
            source=SourceParams(mu=1e4),
            detectors=DetectorParams(double_click_policy=_ASSIGN),
            eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=0.3),
            swap_detector_bits=True,
        ),
        (NoiseTap(sigma=0.2, tag=2),),
        "adb3ade4b7b9c0370b81aeb26967d3b274d724dc9368ca670eb2b1e4e7fefe62",
    ),
}


@pytest.mark.parametrize("case", sorted(ENGINE_PINS))
def test_engine_pins(case):
    loop, params, noise, want = ENGINE_PINS[case]
    stats, transcript = run_session(
        standard_loop(**loop), SessionParams(seed=1931, **params), noise, collect_records=True
    )
    if case == "no_gate_clicks":
        assert stats.raw_clicks == 0
    if case == "every_gate_clicks":
        assert stats.raw_clicks == stats.pulses_sent
    out = io.StringIO(repr(stats) + "\n")
    out.seek(0, io.SEEK_END)
    transcript_csv(transcript, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want
