"""Span recording around the program's public layer calls.

The benchmark traces from the outside: :func:`install` replaces each
public function or method named in :data:`LAYERS` with a timing
wrapper, and :meth:`Installation.uninstall` puts the originals back.  Module
functions are replaced in every loaded ``repro`` module that bound
them (``from x import f`` copies the reference), so a caller that
imported the function by name is traced too.

Each wrapper records one span -- layer, start, end, parent span,
cycle id -- in compact in-memory arrays, and folds the span's self
time (its duration minus the time its child spans cover) into a
per-layer total as the span closes.  :meth:`Recorder.dump` writes the
raw spans out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer).  A dotted attribute path names a
#: method on a class.  Several entries may share one layer.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.codes.registry", "make_codes", "codes.make_codes"),
    ("repro.codes.twonc", "twonc_codes", "codes.make_codes"),
    ("repro.sim.collision", "simulate_round", "sim.simulate_round"),
    ("repro.receiver.frame_sync", "EnergyDetector.detect", "receiver.frame_sync"),
    ("repro.receiver.user_detection", "UserDetector.detect", "receiver.detect"),
    ("repro.utils.correlation_batch", "sliding_correlation_batch", "utils.correlation"),
    ("repro.utils.correlation_batch", "sliding_correlation_many", "utils.correlation"),
    ("repro.receiver.decoder", "ChipDecoder.decode_frame", "receiver.decode"),
    ("repro.utils.bits", "as_bit_array", "utils.as_bit_array"),
    ("repro.utils.crc", "Crc16.compute_bits", "utils.crc"),
    ("repro.utils.crc", "Crc16.check_bits", "utils.crc"),
    ("repro.tag.framing", "FrameFormat.parse", "tag.framing"),
    ("repro.tag.framing", "FrameFormat.build", "tag.framing"),
    ("repro.receiver.sic", "SicReceiver.process", "receiver.sic"),
    ("repro.receiver.streaming", "StreamingReceiver.window_is_live", "receiver.gate"),
    ("repro.receiver.streaming", "StreamingReceiver.windows_are_live", "receiver.gate"),
    ("repro.receiver.session", "SessionSupervisor.feed", "receiver.session"),
    ("repro.receiver.session", "SessionSupervisor.ingest", "receiver.session"),
    ("repro.receiver.session", "SessionSupervisor.pump", "receiver.session"),
    ("repro.farm.farm", "DecodeFarm.feed", "farm.feed"),
    ("repro.farm.farm", "DecodeFarm.pump", "farm.pump"),
    ("repro.gateway.gateway", "Gateway.submit", "gateway.submit"),
    ("repro.gateway.gateway", "Gateway.step", "gateway.step"),
)

#: The layers a process-backend farm run traces: only the calls the
#: parent makes (the worker-side layers run in another process).
PARENT_SIDE = frozenset({"farm.feed", "farm.pump", "gateway.submit", "gateway.step"})


class Recorder:
    """In-memory span store with per-layer self-time totals.

    ``cycle`` is set by the caller: ``-1`` during set-up, else the
    index of the cycle being run.  Totals are kept apart for set-up
    (``cycle < 0``) and timed cycles.
    """

    def __init__(self) -> None:
        self.layer_names: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cycle_of = array("i")
        self.cycle = -1
        self.stack: List[List[float]] = []  # [span index, child time]
        self.self_s: Dict[Tuple[str, bool], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, bool], int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        """Time covered by spans with no parent, in timed cycles."""

    def layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return self._layer_ids[name]

    def depth_of(self, layer_id: int) -> int:
        """How many open spans belong to *layer_id*."""
        return sum(1 for idx, _ in self.stack if self.layer[int(idx)] == layer_id)

    def open(self, layer_id: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(int(self.stack[-1][0]) if self.stack else -1)
        self.cycle_of.append(self.cycle)
        self.end.append(0.0)
        self.stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        _, child = self.stack.pop()
        duration = t - self.start[idx]
        timed = self.cycle >= 0
        name = self.layer_names[self.layer[idx]]
        self.self_s[(name, timed)] += duration - child
        self.calls[(name, timed)] += 1
        if self.stack:
            self.stack[-1][1] += duration
        elif timed:
            self.root_s += duration

    def total(self, name: str, timed: bool = True) -> float:
        return self.self_s.get((name, timed), 0.0)

    def n_calls(self, name: str, timed: bool = True) -> int:
        return self.calls.get((name, timed), 0)

    def dump(self, path) -> None:
        """Write the raw spans as tab-separated lines, one per span."""
        names = self.layer_names
        with open(path, "w") as fh:
            fh.write("span\tlayer\tstart\tend\tparent\tcycle\n")
            for i in range(len(self.layer)):
                fh.write(
                    f"{i}\t{names[self.layer[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.cycle_of[i]}\n"
                )


def _observe(rec: Recorder, layer: str, layer_id: int, result) -> None:
    """Counts taken at the layer boundary, from the call's result."""
    if layer == "receiver.decode":
        rec.counts["decode_attempts"] += rec.cycle >= 0
        rec.counts["decode_successes"] += rec.cycle >= 0 and bool(result.success)
    elif layer == "receiver.gate" and rec.cycle >= 0 and rec.depth_of(layer_id) == 0:
        # Count only the outermost gate call: the stacked gate may fall
        # back to the per-window one.
        if isinstance(result, bool):
            rec.counts["gate_windows"] += 1
            rec.counts["gate_live"] += int(result)
        else:
            rec.counts["gate_windows"] += int(len(result))
            rec.counts["gate_live"] += int(sum(bool(v) for v in result))
    elif layer == "receiver.detect" and rec.cycle >= 0:
        parent = rec.stack[-1][0] if rec.stack else None
        if parent is not None and rec.layer_names[rec.layer[int(parent)]] == "receiver.sic":
            rec.counts["sic_passes"] += 1


def _wrapper(rec: Recorder, fn: Callable, layer: str) -> Callable:
    layer_id = rec.layer_id(layer)
    counted = layer in ("receiver.decode", "receiver.gate", "receiver.detect")
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            idx = rec.open(layer_id)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(layer_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counted:
            _observe(rec, layer, layer_id, result)
        return result

    return traced


class Installation:
    """The wrappers currently installed, so they can be taken out."""

    def __init__(self) -> None:
        self._patched: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def install(rec: Recorder, layers: Optional[frozenset] = None) -> Installation:
    """Wrap every entry of :data:`LAYERS` (or those in *layers*)."""
    inst = Installation()
    loaded = [m for name, m in sorted(sys.modules.items()) if name.startswith("repro") and m]
    for module_name, path, layer in LAYERS:
        if layers is not None and layer not in layers:
            continue
        module = sys.modules[module_name]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            inst.patch(cls, meth, _wrapper(rec, cls.__dict__[meth], layer))
            continue
        original = getattr(module, path)
        wrapped = _wrapper(rec, original, layer)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    inst.patch(mod, attr, wrapped)
    return inst
