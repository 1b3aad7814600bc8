"""The benchmark's stage replay counts what the session engine counts.

``perfbench/replay.py`` rebuilds ``run_session``'s batch loop with a timer
per stage and reads the engine's parameters and noise taps attribute by
attribute.  ``perfbench/run.py --trace 1`` reports no stage share unless
the replay's counts equal the engine's, so a source change that breaks the
replay shows here instead of only in a traced benchmark run.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from loopqkd.harness import load_scenario
from loopqkd.loopnet import noise_taps, select_partner
from loopqkd.session import run_session

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("replay", ROOT / "perfbench" / "replay.py")
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

CASES = {
    "paper_calibrated": (ROOT / "scenarios" / "paper_calibrated.yaml", None),
    "ring_noisy": (ROOT / "perfbench" / "scenarios" / "ring_noisy.yaml", "alice"),
}


@pytest.mark.parametrize("batch_size", [None, 8192])
@pytest.mark.parametrize("collect_records", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_counts_equal_the_engine(case, collect_records, batch_size):
    path, partner = CASES[case]
    sc = load_scenario(str(path))
    params = sc.session_params(pulses=30_000)
    if batch_size is not None:
        params = dataclasses.replace(params, batch_size=batch_size)
    if partner is None:
        config, noise = sc.loop, ()
    else:
        config, noise = select_partner(sc.ring, partner), noise_taps(sc.ring, partner)
    stats, _ = run_session(config, params, noise, collect_records=collect_records)
    counts, _, _ = replay.replay_session(config, params, noise, collect_records=collect_records)
    assert stats.raw_clicks > 0
    assert counts == {
        "raw_clicks": stats.raw_clicks,
        "sifted_bits": stats.sifted_bits,
        "errors": stats.errors,
        "disclosed_bits": stats.disclosed_bits,
    }
