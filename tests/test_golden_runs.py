"""Byte-level golden outputs of ``run`` and ``net-run`` through ``cli.main``.

Each case runs the CLI in process and compares the sha256 of every file it
writes with a hash recorded from the per-pulse engine (complex exponential
and no-click exponentials evaluated on every pulse).  The engine's cell
table and its noise-tap path must reproduce those bytes exactly, at the
default seeds of the shipped scenarios and on a test-local ring that puts a
noise tap, an eavesdropper, ``random_assign`` and a disclosed subset below
one to work together.  A direct ``run_session`` transcript covers what the
CLI cases do not: several batches and ``swap_detector_bits``.
"""

import hashlib
from pathlib import Path

import pytest

from loopqkd.bb84 import EveConfig, EveStrategy
from loopqkd.cli import main
from loopqkd.harness import transcript_csv
from loopqkd.jones import rotator
from loopqkd.loopmodel import standard_loop
from loopqkd.quantumchannel import DetectorParams, DoubleClickPolicy, SourceParams
from loopqkd.session import SessionParams, run_session

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
    text = transcript_csv(transcript)
    assert hashlib.sha256(text.encode()).hexdigest() == MULTI_BATCH_TRANSCRIPT
