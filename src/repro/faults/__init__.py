"""Fault injection for the CBMA stack.

Deployed backscatter networks fail in ways the paper's bench never
sees: tags brown out mid-frame, RC clocks drift off the chip grid,
jammers stomp the band, front ends clip, ACKs vanish, impedance
switches wedge -- and above the PHY, traffic spikes and capacity
brownouts load the ingestion gateway.  This package makes every one of those an injectable,
*deterministic* experiment:

- :mod:`repro.faults.models` -- the fault catalog (what can go wrong);
- :mod:`repro.faults.plan` -- :class:`FaultPlan`, the seed-driven
  schedule that resolves faults round by round, bit-reproducibly.

A plan threads through :class:`~repro.sim.network.CbmaNetwork` /
:class:`~repro.system.CbmaSystem` (``faults=``) and is honored by the
collision synthesizer, the unslotted driver, the ARQ layer and the tag
model.  Losses it causes are attributed as ``fault.*`` entries in the
:class:`~repro.obs.profile.RunProfile` error budget.  See
``docs/resilience.md`` for the catalog and the degradation contract.
"""

from repro.faults.models import (
    FAULT_REASONS,
    AckLoss,
    AdcSaturation,
    BurstInterferer,
    CapacityBrownout,
    OscillatorDrift,
    StuckImpedance,
    TagBrownout,
    TagDropout,
    TrafficSpike,
)
from repro.faults.plan import FaultPlan, RoundFaults, TagTxFault

__all__ = [
    "FaultPlan",
    "RoundFaults",
    "TagTxFault",
    "TagDropout",
    "TagBrownout",
    "OscillatorDrift",
    "BurstInterferer",
    "AdcSaturation",
    "AckLoss",
    "StuckImpedance",
    "TrafficSpike",
    "CapacityBrownout",
    "FAULT_REASONS",
]
