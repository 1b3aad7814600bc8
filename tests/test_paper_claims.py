"""The abstract's claims, each checked as far as the model decides it today.

The paper (quant-ph/0106083) claims: self-alignment and compensation of
birefringence; enough efficiency against polarization dependence; easy
extension to multiple parties; and key creation with 0.1 photon per pulse
at 1.2 kHz and 5.4 % QBER over 200 m of fiber.  Each test below quotes a
claim and asserts what the model says of it, with numbers and with the
conditions under which it holds.  The tests read the closed-form oracle
and the loop fold only, never the Monte Carlo engine.

Not decided yet, and what will decide them (ROADMAP items):

* Compensation with the port polarizer, for any reciprocal links: item 2.
  On rings, whose links carry no Jones matrix yet: item 18.
* Efficiency against polarization dependence: items 2(b) and 15, which
  give the diattenuation ``t_min`` and the modulator's y-axis phase ratio
  at which the oracle's QBER crosses 0.11.
* Multi-party keying over birefringent links: item 18.
* Key creation as a secret key: item 5, the secret-key rate over the loss
  splits the paper allows, and zero where the bound is not positive.
"""

from pathlib import Path

import pytest

from loopqkd.bb84 import PHASE_CODING
from loopqkd.harness import expected_for_scenario, load_scenario
from loopqkd.jones import retarder
from loopqkd.loopmodel import fringe_coefficients, standard_loop

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def test_compensation_of_birefringence():
    """'The system has naturally self-alignment and compensation of
    birefringence.'  It holds for one linear retarder on either link, at
    any retardance and axis; two different retarders, one per link,
    already lower the visibility."""
    for delta, theta in ((0.7, 0.3), (1.3, 1.0), (2.0, 0.0)):
        for link in ("upper_jones", "lower_jones"):
            loop = standard_loop(**{link: retarder(delta, theta)})
            assert fringe_coefficients(loop).visibility == pytest.approx(1.0, abs=1e-12)
    two = standard_loop(upper_jones=retarder(0.7, 0.3), lower_jones=retarder(1.3, 1.0))
    assert fringe_coefficients(two).visibility == pytest.approx(0.95658, abs=1e-5)


def test_multi_party():
    """'Moreover it is easily applicable to multi-party.'  On ideal fiber
    every partner of the four-party ring keys at the same oracle rate with
    QBER 0, and both modulator gates keep every phase; an idle module with
    phase noise raises the partner's QBER."""
    ring = load_scenario(str(SCENARIOS / "network_four_party.yaml"))
    period = 1.0 / ring.source.rep_rate
    for partner in ring.ring.entity_ids():
        expected = expected_for_scenario(ring, partner)
        assert expected.raw_rate == pytest.approx(4758.1, abs=0.05)
        assert expected.qber == 0.0
        coupled = PHASE_CODING.through(ring.effective_loop(partner), period)
        assert (coupled.cell_deltas == PHASE_CODING.cell_deltas).all()
    noisy = load_scenario(str(ROOT / "perfbench" / "scenarios" / "ring_noisy.yaml"))
    assert expected_for_scenario(noisy, "alice").qber == pytest.approx(0.180627, abs=1e-6)


def test_bench_point():
    """'Key creation with 0.1 photon per pulse at a rate of 1.2KHz with a
    5.4% QBER over a 200m fiber was realized.'  The calibrated scenario
    launches 0.1 photon per pulse into the loop, which leaves Alice at
    about 0.054 after her attenuator, over 200 m links."""
    sc = load_scenario(str(SCENARIOS / "paper_calibrated.yaml"))
    assert sc.source.mu == 0.1
    assert sc.effective["loop"]["upper_length"] == sc.effective["loop"]["lower_length"] == 200.0
    assert sc.source.mu * sc.effective["loop"]["attenuator_transmittance"] == pytest.approx(0.054, abs=5e-4)
    expected = expected_for_scenario(sc)
    assert expected.raw_rate == pytest.approx(1200.0, rel=1e-6)
    assert expected.qber == pytest.approx(0.054, abs=1e-9)
