"""The benchmark's four workloads, built from the program's public API.

Every workload is a closed loop from one process with one client: the
next cycle starts when the previous one returns, and every cycle does
the same fixed amount of work.  A run is a fixed sequence of cycles
made from ``--seed``; its length is ``--seconds`` times the workload's
nominal cycle rate on a 2-core host (:data:`CYCLES_PER_S`), so the same
seed and length always give the same inputs and the same frame losses.
The process backend runs exactly one farm worker, so the parent and
the worker fit two cores.

Why each workload exists
------------------------
``paper_rounds``
    The paper's operating point: 10 tags, 2NC-64, 2 samples/chip,
    16-byte payloads, ``Deployment.linear(10, 1.0)``, the standard
    receiver.  Most of its time is synthesis, user detection and
    decoding with many concurrent users, and its (10, 64) code-family
    search makes its set-up the largest.  It never touches the
    session, farm or gateway layers.
``sic_nearfar``
    ``SicReceiver`` on 4 tags at staggered tag-to-receiver distances
    (0.4, 0.8, 1.6, 2.4 m on the excitation-receiver axis).  The only
    workload where successive interference cancellation runs, and
    near-far enough that cancellation recovers frames the standard
    receiver loses (checked on every run).
``farm_stream``
    A ``DecodeFarm`` on the process backend with 1 worker and 4
    sessions over one busy soak capture, fed in 3-hop chunks; each
    session decodes its own quarter of the capture, so a run scores
    four times as many distinct frames.  The streaming-decode
    headline: most windows are live, and every chunk crosses the
    process boundary.
``gateway_sparse``
    A ``Gateway`` on the process backend with 1 worker, 32 streams
    over a looped, mostly dark capture (one single-tag frame every 30
    hops, fed in 1-hop chunks; each stream starts at its own offset)
    and a periodic traffic spike plus capacity brownout, so every run
    visits FULL, THROTTLED and SHED.  The pre-gate rejects most
    windows, so per-chunk admission, dispatch and IPC weigh more than
    decoding.  It runs on an
    injected virtual clock, so admission and shedding -- and with
    them the frame losses -- repeat exactly.

Which layer metric should move which end-to-end metric
------------------------------------------------------
=================================  =========================  ==========================  ==========================
layer metric (traced run)          should move                mostly on                   little or none on
=================================  =========================  ==========================  ==========================
codes.make_codes_s                 setup_s                    paper_rounds                (all pay some)
sim.simulate_round_ms              rtf_per_core, cycle_p50    paper_rounds, sic_nearfar   farm_stream, gateway_sparse
receiver.frame_sync_ms             cycle_p50                  paper_rounds                gateway_sparse
receiver.detect_ms,                rtf_per_core, cycle_p50    paper_rounds                --
utils.correlation_ms
receiver.decode_ms, _attempts,     rtf_per_core               paper_rounds, farm_stream   gateway_sparse
_success_ratio
utils.as_bit_array_ms, _calls,     rtf_per_core               paper_rounds, farm_stream   gateway_sparse
utils.crc_ms, tag.framing_ms
receiver.sic_self_ms, sic_passes   rtf_per_core, cycle_p90    sic_nearfar                 all others
receiver.gate_ms, gate_live_ratio, rtf_per_core               gateway_sparse              paper_rounds
receiver.session_ms
farm.feed_ms, farm.pump_wait_ms,   cycle_p50                  farm_stream, gateway_sparse paper_rounds, sic_nearfar
farm.worker_busy_frac
farm.ipc_overhead_frac             rtf_per_core, cycle_p50    gateway_sparse, farm_stream paper_rounds, sic_nearfar
gateway.submit_us, step_self_ms    cycle_p90                  gateway_sparse              all others
gateway.admitted, refused,         loss_frac                  gateway_sparse              all others
shed_chunks, rounds_shed,
peak_queue_depth
trace.unattributed_frac,           (trust in the breakdown)   all                         --
trace.overhead_frac
=================================  =========================  ==========================  ==========================
"""

from __future__ import annotations

import asyncio
import multiprocessing
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.channel.geometry import Deployment, Point
from repro.farm import DecodeFarm, FarmConfig
from repro.gateway import Gateway, GatewayConfig
from repro.gateway.soak import (
    CapacityBrownout,
    GatewayFaultPlan,
    GatewaySoakConfig,
    GatewaySoakResult,
    TrafficSpike,
    check_gateway_invariants,
)
from repro.receiver.sic import SicReceiver
from repro.sim.experiments.soak import SoakConfig, build_soak_stack, build_soak_stream
from repro.sim.metrics import MetricsAccumulator
from repro.sim.network import CbmaConfig, CbmaNetwork

NAMES = ("paper_rounds", "sic_nearfar", "farm_stream", "gateway_sparse")
#: The workloads that decode on a process-backend farm.
ON_FARM = ("farm_stream", "gateway_sparse")

#: Nominal cycles per second on a 2-core host; sets a run's length.
CYCLES_PER_S = {
    "paper_rounds": 28.0,
    "sic_nearfar": 12.0,
    "farm_stream": 15.0,
    "gateway_sparse": 40.0,
}

#: Output checks: the largest share of offered frames a correct
#: program may lose on each workload (measured losses sit far below),
#: and the largest share of delivered frames that may carry a payload
#: that was never sent.
MAX_LOSS = {
    "paper_rounds": 0.65,
    "sic_nearfar": 0.4,
    "farm_stream": 0.3,
    "gateway_sparse": 0.6,
}
MAX_WRONG = 0.05

FARM_WORKERS = 1
FARM_SESSIONS = 4
FARM_SEGMENT_CHUNKS = 10
GATEWAY_STREAMS = 32
#: The gateway capture: this many single-tag frames, each followed by
#: this many dark 3-hop segments; streams feed it in 1-hop chunks.
GATEWAY_FRAMES = 20
GATEWAY_DARK_SEGMENTS = 9
#: Spike and brownout repeat with this period (rounds).
GATEWAY_FAULT_PERIOD = 16


@dataclass
class Outcome:
    """What one episode delivered, scored against the sent frames."""

    offered: int = 0
    lost: int = 0
    delivered: int = 0
    wrong: int = 0
    """Delivered frames whose payload no tag sent (round workloads:
    not the payload the tag sent)."""
    extra: int = 0
    """Delivered frames beyond those offered under their (tag, payload)
    that repeat a sent payload: duplicates, or a frame delivered under
    another tag's id."""
    problems: List[str] = field(default_factory=list)
    frames: Dict[int, list] = field(default_factory=dict)
    """Delivered ``(start, user, payload)`` per session or stream."""
    counts: Dict[str, int] = field(default_factory=dict)
    worker_busy_frac: float = 0.0


def n_cycles(name: str, seconds: float) -> int:
    """Cycles in a run; farm_stream feeds whole capture segments."""
    n = max(2, int(round(CYCLES_PER_S[name] * seconds)))
    if name == "farm_stream":
        n = -(-n // FARM_SEGMENT_CHUNKS) * FARM_SEGMENT_CHUNKS
    return n


def worker_pids() -> List[int]:
    return [p.pid for p in multiprocessing.active_children()]


def score(out: Outcome, offered: Counter, delivered: Counter, sent: set) -> None:
    """Fold one stream's (tag, payload) counts into *out*; *sent* holds
    every payload any tag sent."""
    out.offered += sum(offered.values())
    out.delivered += sum(delivered.values())
    out.lost += sum(n - min(n, delivered.get(k, 0)) for k, n in offered.items())
    for (tag, payload), n in delivered.items():
        surplus = n - min(n, offered.get((tag, payload), 0))
        if payload in sent:
            out.extra += surplus
        else:
            out.wrong += surplus


# ----------------------------------------------------------------------
# Collision rounds: paper_rounds and sic_nearfar
# ----------------------------------------------------------------------


def sic_deployment() -> Deployment:
    """4 tags on the excitation-receiver axis, 0.4-2.4 m from the
    receiver (the two far ones behind the excitation source)."""
    dep = Deployment(excitation=Point(-0.5, 0.0), receiver=Point(0.5, 0.0))
    for k, d in enumerate((0.4, 0.8, 1.6, 2.4)):
        dep.tags.append(Point(0.5 - d, 0.1 * (k % 2 == 0)))
    return dep


class RoundsEpisode:
    """One network, one collision round per cycle."""

    def __init__(self, net: CbmaNetwork) -> None:
        self.net = net
        self.metrics = MetricsAccumulator()
        self.cycles = 0
        self._frame_s = net.config.frame_duration_s()

    def worker_pids(self) -> List[int]:
        return []

    def fed_airtime_s(self) -> float:
        """One frame's airtime per round."""
        return self.cycles * self._frame_s

    def cycle(self, index: int) -> None:
        self.net.run_round(metrics=self.metrics)
        self.cycles += 1

    def abort(self) -> None:
        pass

    def finish(self) -> Outcome:
        m = self.metrics
        out = Outcome(
            offered=m.frames_sent,
            lost=m.frames_sent - m.frames_correct,
            delivered=m.frames_decoded + m.false_decodes,
            wrong=m.frames_decoded - m.frames_correct + m.false_decodes,
        )
        expected = self.cycles * self.net.config.n_tags
        if m.frames_sent != expected:
            out.problems.append(f"{m.frames_sent} frames scored, expected {expected}")
        return out


class RoundsWorkload:
    def __init__(self, name: str, seed: int, cycles: int) -> None:
        self.name = name
        self.seed = seed
        self.cycles = cycles
        if name == "paper_rounds":
            self.config = CbmaConfig(n_tags=10, seed=seed)
            self.deployment = Deployment.linear(10, 1.0)
            self.receiver_cls = None
        else:
            self.config = CbmaConfig(n_tags=4, seed=seed)
            self.deployment = sic_deployment()
            self.receiver_cls = SicReceiver
        # The first network is built here, so its code-family search
        # and receiver build count as set-up.
        self._first: Optional[CbmaNetwork] = self._network(self.receiver_cls)

    def _network(self, receiver_cls) -> CbmaNetwork:
        return CbmaNetwork(self.config, self.deployment, receiver_cls=receiver_cls)

    def episode(self, backend: str = "process") -> RoundsEpisode:
        net, self._first = self._first or self._network(self.receiver_cls), None
        return RoundsEpisode(net)

    def check(self, outcome: Outcome) -> List[str]:
        if self.receiver_cls is not SicReceiver:
            return []
        # Cancellation must do real work: on the same rounds, the
        # standard receiver delivers fewer frames.
        plain = RoundsEpisode(self._network(None))
        for i in range(self.cycles):
            plain.cycle(i)
        base = plain.finish()
        if outcome.offered - outcome.lost <= base.offered - base.lost:
            return [
                f"SIC delivered {outcome.offered - outcome.lost} frames, "
                f"standard receiver {base.offered - base.lost}"
            ]
        return []


# ----------------------------------------------------------------------
# Soak captures for the streaming workloads
# ----------------------------------------------------------------------


class Capture:
    """A soak capture cut into 3-hop chunks.

    It is built from independently seeded segments, each a
    ``SoakConfig`` stream of ``n_windows`` windows at ``traffic_rate``
    (sent by every tag, or by tag ``only`` alone) followed by two dark
    hops, so no frame crosses a segment boundary and the capture can
    loop without cutting a frame.  Short segments also keep synthesis
    cheap: its cost grows with the square of a segment's length.
    """

    def __init__(
        self,
        n_tags: int,
        seed: int,
        segments: List[Tuple[int, float, Optional[int]]],
        chunk_hops: int = 3,
    ) -> None:
        tags, stream = build_soak_stack(SoakConfig(n_windows=1, n_tags=n_tags, seed=seed))
        parts = []
        #: Sent frames as (first sample, tag, payload).
        self.sent: List[Tuple[int, int, bytes]] = []
        base = 0
        for k, (n_windows, traffic_rate, only) in enumerate(segments):
            senders = tags if only is None else [tags[only]]
            cap = SoakConfig(
                n_windows=n_windows,
                n_tags=n_tags,
                seed=int(np.random.SeedSequence([seed, k]).generate_state(1)[0]),
                traffic_rate=traffic_rate,
                chunk_hops=chunk_hops,
            )
            buffer, sent = build_soak_stream(cap, None, stream, senders)
            self.sent += [
                (base + int(np.floor(t.start)), senders[t.tag].tag_id, t.payload) for t in sent
            ]
            parts.append(buffer)
            base += buffer.size
        buffer = np.concatenate(parts)
        self.payloads = {payload for _start, _tag, payload in self.sent}
        self.chunk = cap.chunk_hops * stream.hop_samples
        self.chunks = [buffer[lo : lo + self.chunk] for lo in range(0, buffer.size, self.chunk)]
        self.frame_samples = stream.frame_samples
        #: The shape of one segment (what decodes it).
        self.config = cap
        self.phy = CbmaConfig(
            n_tags=n_tags,
            seed=seed,
            payload_bytes=cap.payload_bytes,
            code_length=cap.code_length,
            samples_per_chip=cap.samples_per_chip,
            user_threshold=cap.user_threshold,
        )
        self.sample_rate = self.phy.chip_rate_hz * self.phy.samples_per_chip

    def offered(self, offset: int, n_chunks: int) -> Counter:
        """Frames lying wholly inside chunks ``offset .. offset+n_chunks``
        of the looped capture, by (tag, payload)."""
        period = len(self.chunks) * self.chunk
        lo = offset * self.chunk
        hi = lo + n_chunks * self.chunk
        out: Counter = Counter()
        for start, tag, payload in self.sent:
            first = -((start - lo) // period)  # ceil((lo - start) / period)
            last = (hi - self.frame_samples - 1 - start) // period
            out[(tag, payload)] += max(0, last - first + 1)
        return +out


# ----------------------------------------------------------------------
# Streaming decode on the farm: farm_stream
# ----------------------------------------------------------------------


class FarmEpisode:
    """One farm; a cycle feeds every session its next chunk, then pumps.

    Session ``k`` decodes chunks ``k * cycles .. (k + 1) * cycles`` of
    the capture, so the sessions decode different frames and a run
    scores four times as many.
    """

    def __init__(self, wl: "FarmWorkload", backend: str) -> None:
        self.wl = wl
        self.farm = DecodeFarm.from_config(
            wl.capture.phy,
            n_sessions=FARM_SESSIONS,
            farm=FarmConfig(n_workers=FARM_WORKERS, ring_slot_samples=wl.capture.chunk),
            backend=backend,
        )
        self.sids = self.farm.session_ids
        self.cycles = 0

    def worker_pids(self) -> List[int]:
        return worker_pids()

    def fed_airtime_s(self) -> float:
        cap = self.wl.capture
        return self.cycles * len(self.sids) * cap.chunk / cap.sample_rate

    def cycle(self, index: int) -> None:
        chunks = self.wl.capture.chunks
        for k, sid in enumerate(self.sids):
            self.farm.feed(sid, chunks[k * self.wl.cycles + index])
        self.farm.pump()
        self.cycles += 1

    def abort(self) -> None:
        self.farm.close()

    def finish(self) -> Outcome:
        self.farm.finish()
        self.farm.close()
        out = Outcome(worker_busy_frac=self.farm.worker_utilization.get(0, 0.0))
        out.frames = {
            sid: [(f.start_sample, f.user_id, f.payload) for f in self.farm.frames[sid]]
            for sid in self.sids
        }
        if self.cycles < self.wl.cycles:
            return out  # a prefix run: not scored
        cap = self.wl.capture
        for k, sid in enumerate(self.sids):
            delivered = Counter((u, p) for _s, u, p in out.frames[sid])
            score(out, cap.offered(k * self.cycles, self.cycles), delivered, cap.payloads)
        return out


class FarmWorkload:
    def __init__(self, name: str, seed: int, cycles: int) -> None:
        self.name = name
        self.cycles = cycles
        # Busy traffic: each tag starts a frame in 30 % of the windows.
        segment = (3 * FARM_SEGMENT_CHUNKS - 2, 0.3, None)
        n_segments = FARM_SESSIONS * cycles // FARM_SEGMENT_CHUNKS
        self.capture = Capture(4, seed, [segment] * n_segments)

    def episode(self, backend: str = "process") -> FarmEpisode:
        return FarmEpisode(self, backend)

    def check(self, outcome: Outcome) -> List[str]:
        # The inline backend is the oracle: same capture, same frames.
        oracle = self.episode("inline")
        for i in range(self.cycles):
            oracle.cycle(i)
        expected = oracle.finish().frames
        return [
            f"session {sid}: process backend delivered {len(outcome.frames[sid])} "
            f"frames, inline oracle {len(expected[sid])}, or they differ"
            for sid in sorted(expected)
            if outcome.frames.get(sid) != expected[sid]
        ]


# ----------------------------------------------------------------------
# The service tier: gateway_sparse
# ----------------------------------------------------------------------


class GatewayEpisode:
    """One gateway on a virtual clock; a cycle is one round: every
    stream submits its next chunks, then the gateway runs one step."""

    def __init__(self, wl: "GatewayWorkload", backend: str) -> None:
        self.wl = wl
        self.loop = asyncio.new_event_loop()
        self.now = 0.0
        self.gw = Gateway.from_config(
            wl.capture.phy,
            gateway=wl.policy,
            farm=FarmConfig(
                n_workers=FARM_WORKERS, ring_slots=8, ring_slot_samples=wl.capture.chunk
            ),
            backend=backend,
            clock=lambda: self.now,
            sleep=self._sleep,
            seed=wl.seed,
        )
        self.sids = [
            self.loop.run_until_complete(self.gw.open_stream(priority=i % 4))
            for i in range(GATEWAY_STREAMS)
        ]
        n = len(wl.capture.chunks)
        self.offset = {sid: (k * n) // len(self.sids) for k, sid in enumerate(self.sids)}
        self.submitted = {sid: 0 for sid in self.sids}
        self.states: List[str] = []

    async def _sleep(self, dt: float) -> None:
        self.now += dt

    def worker_pids(self) -> List[int]:
        return worker_pids()

    def fed_airtime_s(self) -> float:
        cap = self.wl.capture
        return self.gw.chunks_dispatched * cap.chunk / cap.sample_rate

    async def _round(self, index: int) -> None:
        faults = self.wl.plan.resolve(index % GATEWAY_FAULT_PERIOD)
        n_offer = max(1, int(round(faults.spike)))
        chunks = self.wl.capture.chunks
        for sid in self.sids:
            for _ in range(n_offer):
                k = self.offset[sid] + self.submitted[sid]
                await self.gw.submit(sid, chunks[k % len(chunks)])
                self.submitted[sid] += 1
        await self.gw.step(budget=max(1, int(self.wl.soak.dispatch_budget * faults.budget)))
        self.states.append(self.gw.state.value)
        self.now += self.wl.soak.round_s

    def cycle(self, index: int) -> None:
        self.loop.run_until_complete(self._round(index))

    def abort(self) -> None:
        self.gw.close()
        self.loop.close()

    async def _close(self) -> Dict[int, object]:
        while self.gw.queue_depth:
            await self.gw.step()
            self.now += self.wl.soak.round_s
        return {sid: await self.gw.close_stream(sid, flush=True) for sid in self.sids}

    def finish(self) -> Outcome:
        gw = self.gw
        reports = self.loop.run_until_complete(self._close())
        gw.farm.finish()
        gw.close()
        self.loop.close()
        result = GatewaySoakResult(
            config=self.wl.soak,
            plan=self.wl.plan,
            reports=reports,
            offered=dict(self.submitted),
            round_states=self.states,
            transitions=[(f.value, t.value, forced) for f, t, forced in gw.ladder.transitions],
            admitted=gw.admitted,
            rejected=gw.rejected,
            shed=gw.shed,
            deadline_misses=gw.deadline_misses,
            migrations=gw.migrations,
            moved_sessions=[],
            peak_queue_depth=gw.peak_queue_depth,
            peak_retained_samples=gw.peak_retained_samples,
        )
        out = Outcome(worker_busy_frac=gw.farm.worker_utilization.get(0, 0.0))
        out.problems = [
            f"{v.name}: {v.detail}" for v in check_gateway_invariants(self.wl.soak, result)
        ]
        visited = set(self.states)
        if len(self.states) >= GATEWAY_FAULT_PERIOD and not {"full", "throttled", "shed"} <= visited:
            out.problems.append(f"ladder visited only {sorted(visited)}")
        out.counts = {
            "admitted": gw.admitted,
            "refused": gw.rejected,
            "shed_chunks": gw.shed,
            "rounds_shed": self.states.count("shed"),
            "peak_queue_depth": gw.peak_queue_depth,
        }
        out.frames = {
            sid: [(f.start_sample, f.user_id, f.payload) for f in reports[sid].frames]
            for sid in self.sids
        }
        cap = self.wl.capture
        for sid in self.sids:
            delivered = Counter((f.user_id, f.payload) for f in reports[sid].frames)
            offered = cap.offered(self.offset[sid], self.submitted[sid])
            score(out, offered, delivered, cap.payloads)
        return out


class GatewayWorkload:
    def __init__(self, name: str, seed: int, cycles: int) -> None:
        self.name = name
        self.seed = seed
        self.cycles = cycles
        # Mostly dark: one frame every 30 hops, from the two tags in
        # turn; the rest is noise.  A fixed frame count and no
        # collisions keep the decode load and the losses (which the
        # gateway's refusals and shedding cause) alike across seeds.
        # Small chunks make per-chunk admission, dispatch and IPC
        # weigh more than the pre-gate.
        segments = []
        for k in range(GATEWAY_FRAMES):
            segments += [(1, 1.0, k % 2)] + [(1, 0.0, None)] * GATEWAY_DARK_SEGMENTS
        self.capture = Capture(2, seed, segments, chunk_hops=1)
        self.soak = GatewaySoakConfig(
            n_streams=GATEWAY_STREAMS,
            n_rounds=cycles,
            seed=seed,
            dispatch_budget=GATEWAY_STREAMS * 3 // 2,
            n_workers=FARM_WORKERS,
            backend="process",
            capture=self.capture.config,
        )
        # The soak's admission policy (tokens for twice the nominal
        # offered rate, no retries; intake and retention bounds as
        # check_gateway_invariants audits them), with queue watermarks
        # above one round of traffic: the depth the ladder observes
        # includes the round just submitted, and the looped capture
        # never runs dry, so the ladder must settle back to FULL
        # between spikes.
        per_round = self.soak.n_streams * self.soak.chunks_per_round
        self.policy = GatewayConfig(
            token_rate=2.0 * per_round / self.soak.round_s,
            token_burst=2.0 * per_round,
            max_intake_chunks=8,
            max_streams=self.soak.n_streams,
            queue_high=2 * per_round,
            queue_low=per_round + per_round // 4,
            patience=2,
            max_retries=0,
            retain_chunks=32,
        )
        self.plan = GatewayFaultPlan(
            [
                TrafficSpike(factor=3.0, start_round=4, end_round=7),
                CapacityBrownout(factor=0.25, start_round=5, end_round=9),
            ],
            seed=seed,
        )

    def episode(self, backend: str = "process") -> GatewayEpisode:
        return GatewayEpisode(self, backend)

    def check(self, outcome: Outcome) -> List[str]:
        return []


def build(name: str, seed: int, cycles: int):
    if name in ("paper_rounds", "sic_nearfar"):
        return RoundsWorkload(name, seed, cycles)
    if name == "farm_stream":
        return FarmWorkload(name, seed, cycles)
    return GatewayWorkload(name, seed, cycles)
