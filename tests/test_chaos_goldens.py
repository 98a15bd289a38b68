"""Golden values for the chaos harness: random plans, resolution, soaks.

The soak harnesses are only useful if a red run replays exactly, so
the seeded fault-plan generators, plan resolution and the soak ledgers
are pinned here byte for byte.  Faults are recorded as (class name,
dataclass field values) rather than through ``to_dict``, so the pins do
not depend on the JSON format; fields left at ``None`` (open window,
every tag) are omitted, so a model that gains an optional field
defaulting to ``None`` digests the same.

INTENTIONAL changes to a generator, a model or the soak stack will
break these; regenerate with the expression in each test and say why
in CHANGELOG.md.
"""

import dataclasses
import hashlib

from repro.faults import BurstInterferer, FaultPlan, OscillatorDrift, TagDropout
from repro.gateway.soak import (
    CapacityBrownout,
    GatewayFaultPlan,
    GatewaySoakConfig,
    TrafficSpike,
    random_gateway_fault_plan,
    run_gateway_soak,
)
from repro.sim.experiments.soak import (
    SoakConfig,
    random_fault_plan,
    run_campaign,
    run_soak,
    shrink_fault_plan,
)

SEEDS = range(20)


def _digest(records) -> str:
    return hashlib.sha256(repr(list(records)).encode()).hexdigest()[:16]


def _fault(f):
    return (
        type(f).__name__,
        tuple(
            sorted(
                (fld.name, getattr(f, fld.name))
                for fld in dataclasses.fields(f)
                if getattr(f, fld.name) is not None
            )
        ),
    )


def _plan(plan):
    return (plan.seed, tuple(_fault(f) for f in plan.faults))


def _session_round(rf):
    return (
        sorted(rf.silent),
        sorted(rf.brownout.items()),
        sorted(rf.drift_ppm.items()),
        sorted(rf.stuck),
        sorted(rf.ack_lost),
        rf.jammers,
        rf.clip_level,
    )


def _frames(frames):
    return [(f.user_id, f.payload, f.start_sample) for f in frames]


class TestRandomPlans:
    """Regenerate: ``_digest(_plan(random_fault_plan(s, 300, 2)) for s in SEEDS)``
    and the matching expressions below."""

    def test_session_plans(self):
        plans = [random_fault_plan(s, 300, 2) for s in SEEDS]
        assert _digest(_plan(p) for p in plans) == "f4a3ea4f391a08db"

    def test_session_resolution(self):
        plans = [random_fault_plan(s, 300, 2) for s in SEEDS]
        rounds = (_session_round(p.resolve(r, 2)) for p in plans for r in range(300))
        assert _digest(rounds) == "c3d51b9e698e9357"

    def test_gateway_plans(self):
        plans = [random_gateway_fault_plan(s, 12) for s in SEEDS]
        assert _digest(_plan(p) for p in plans) == "2475f7d4023668b3"

    def test_gateway_resolution(self):
        plans = [random_gateway_fault_plan(s, 12) for s in SEEDS]
        rounds = (
            (rf.spike, rf.budget)
            for p in plans
            for rf in (p.resolve(r) for r in range(12))
        )
        assert _digest(rounds) == "d587b32ab6b145e5"


class TestSoakLedgers:
    def test_session_campaigns(self):
        """The ``repro soak --windows 300 --campaigns 3 --seed 7`` table."""
        outcomes = run_campaign(SoakConfig(n_windows=300, seed=7), 3)
        table = [
            (
                len(o.plan.faults),
                o.result.delivered,
                o.result.offered,
                o.result.final_state,
                o.result.stats["resyncs"],
                o.result.stats["windows_shed"],
                len(o.result.violations),
            )
            for o in outcomes
        ]
        assert table == [
            (2, 26, 30, "healthy", 1, 0, 0),
            (1, 28, 30, "healthy", 1, 0, 0),
            (1, 30, 30, "healthy", 0, 0, 0),
        ]
        assert _digest(_frames(o.result.frames) for o in outcomes) == "d009dbd11ac7411c"

    def test_gateway_migrate_soak(self):
        """The ``repro gateway soak --streams 50 --rounds 12 --migrate-round 5``
        ledger under the command's default spike-over-brownout plan."""
        plan = GatewayFaultPlan(
            [
                TrafficSpike(factor=3.0, start_round=4, end_round=9),
                CapacityBrownout(factor=0.2, start_round=5, end_round=10),
            ],
            seed=7,
        )
        result = run_gateway_soak(
            GatewaySoakConfig(n_streams=50, n_rounds=12, seed=7, migrate_round=5),
            plan,
        )
        assert result.ok
        assert sum(result.offered.values()) == 250
        assert (result.admitted, result.rejected, result.shed) == (250, 0, 80)
        assert result.delivered_frames == 210
        states = result.round_states
        path = [s for i, s in enumerate(states) if i == 0 or s != states[i - 1]]
        assert path == ["full", "throttled", "shed", "throttled", "full"]
        assert len(result.moved_sessions) == 25
        ledger = [
            (sid, rep.admitted, rep.fed, rep.shed, rep.rejected, _frames(rep.frames))
            for sid, rep in sorted(result.reports.items())
        ]
        assert _digest(ledger) == "9038ea6dcc01c7d4"


class TestShrunkenPlans:
    def test_session_synthetic_shrink(self):
        plan = FaultPlan(
            [
                TagDropout(probability=0.5, start_round=0, end_round=200),
                BurstInterferer(duty=0.5, power_dbm=30.0, start_round=0, end_round=200),
                OscillatorDrift(
                    probability=0.5, drift_ppm=3000.0, start_round=100, end_round=300
                ),
            ],
            seed=4,
        )

        def reproduces(p):
            return any(isinstance(f, BurstInterferer) and f.active(50) for f in p.faults)

        shrunk = shrink_fault_plan(plan, reproduces, horizon=300)
        assert type(shrunk) is FaultPlan
        assert _plan(shrunk) == (
            4,
            (
                (
                    "BurstInterferer",
                    (
                        ("duty", 0.5),
                        ("end_round", 51),
                        ("power_dbm", 30.0),
                        ("probability", 1.0),
                        ("start_round", 50),
                    ),
                ),
            ),
        )

    def test_session_soak_shrink(self):
        cfg = SoakConfig(n_windows=60, seed=11)
        clean = run_soak(cfg).stats["frames"]
        plan = FaultPlan(
            [
                TagDropout(probability=1.0, tags=(0,), start_round=0, end_round=60),
                BurstInterferer(duty=0.3, power_dbm=-10.0, start_round=40, end_round=55),
            ],
            seed=5,
        )
        shrunk = shrink_fault_plan(
            plan, lambda p: run_soak(cfg, p).stats["frames"] < clean, horizon=60
        )
        assert _plan(shrunk) == (
            5,
            (
                (
                    "TagDropout",
                    (
                        ("end_round", 5),
                        ("probability", 1.0),
                        ("start_round", 4),
                        ("tags", (0,)),
                    ),
                ),
            ),
        )

    def test_gateway_synthetic_shrink(self):
        plan = GatewayFaultPlan(
            [
                TrafficSpike(factor=5.0, start_round=0, end_round=10),
                TrafficSpike(factor=2.0, start_round=1, end_round=6),
                CapacityBrownout(factor=0.3, start_round=2, end_round=7),
            ],
            seed=3,
        )
        shrunk = shrink_fault_plan(plan, lambda p: p.resolve(5).spike >= 5.0, horizon=12)
        assert type(shrunk) is GatewayFaultPlan
        assert _plan(shrunk) == (
            3,
            (
                (
                    "TrafficSpike",
                    (("end_round", 6), ("factor", 5.0), ("start_round", 5)),
                ),
            ),
        )
