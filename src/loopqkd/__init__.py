"""loopqkd: simulator for counter-propagating loop-interferometer quantum key distribution.

Layers, bottom to top:

* ``jones``          -- polarization algebra (states and operators).
* ``loopmodel``      -- deterministic optics of the fiber loop and its coupler.
* ``quantumchannel`` -- weak-pulse photon statistics and detector clicks.
* ``bb84``           -- phase-coded BB84 protocol, sifting, eavesdropper model.
* ``session``        -- seeded, vectorized Monte Carlo session engine.
* ``loopnet``        -- multi-party ring networks with partner selection.
* ``harness``        -- scenario files, calibration, sweeps, CSV reports.
"""

__version__ = "0.1.0"
