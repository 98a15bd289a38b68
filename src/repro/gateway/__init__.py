"""Async ingestion gateway: the production service shape.

Public surface:

- :class:`Gateway` -- asyncio front-end over the decode farm;
  construction entry points are ``Gateway(phy_config, ...)`` and
  :meth:`Gateway.from_config`.
- :class:`GatewayConfig` -- admission/backpressure/retry policy.
- :class:`GatewayState` / :class:`DegradationLadder` -- the
  FULL -> THROTTLED -> SHED -> DRAINING ladder.
- :class:`TokenBucket` / :class:`RetryPolicy` -- admission primitives.
- :mod:`repro.gateway.soak` -- the deterministic chaos-soak harness
  (:func:`~repro.gateway.soak.run_gateway_soak`).  Its
  :class:`~repro.gateway.soak.GatewayFaultPlan` is a
  :class:`~repro.faults.FaultPlan` narrowed to the load models, so it
  shares the plan JSON format and shrinks through
  :func:`repro.sim.experiments.soak.shrink_fault_plan`; the
  ``repro gateway soak --artifact`` file replays via ``--plan``.
"""

from repro.gateway.admission import RetryPolicy, TokenBucket
from repro.gateway.config import GatewayConfig
from repro.gateway.gateway import AdmissionRefused, Gateway, StreamReport
from repro.gateway.ladder import DegradationLadder, GatewayState

__all__ = [
    "AdmissionRefused",
    "DegradationLadder",
    "Gateway",
    "GatewayConfig",
    "GatewayState",
    "RetryPolicy",
    "StreamReport",
    "TokenBucket",
]
