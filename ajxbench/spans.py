"""Benchmark-side tracing: spans around each layer's public entry points.

:class:`Recorder` patches the entry points listed in ``ENTRY_POINTS`` for
the traced pass only and restores them afterwards; no program file is
touched.  A span is ``[id, parent id, op id, name, start, end, attr]``.
Spans of one client operation share the op id of their root span, also
across ``pfor`` worker threads.  Spans stay in memory and are written out
at exit.  Wire counts (messages and ndarray payload bytes) are taken here,
outside in, at the ``Transport.call`` / ``LocalTransport.broadcast``
wrappers; the program's own traffic counters are never read.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

perf = time.perf_counter

# (module, owner attribute or None for a module function, method, span name)
ENTRY_POINTS = [
    ("repro.core.volume", "VolumeClient", "write_block", "core.write_block"),
    ("repro.core.volume", "VolumeClient", "read_block", "core.read_block"),
    ("repro.core.volume", "VolumeClient", "collect_garbage", "core.collect_garbage"),
    ("repro.core.volume", "VolumeClient", "rebuild", "core.rebuild"),
    ("repro.client.protocol", "ProtocolClient", "read", "client.read"),
    ("repro.client.protocol", "ProtocolClient", "write", "client.write"),
    ("repro.client.protocol", "ProtocolClient", "read_degraded", "client.read_degraded"),
    ("repro.client.protocol", "ProtocolClient", "recover", "client.recover"),
    ("repro.client.health", "HealthRegistry", "allow_request", "client.health"),
    ("repro.client.health", "HealthRegistry", "observe_success", "client.health"),
    ("repro.client.health", "HealthRegistry", "observe_failure", "client.health"),
    ("repro.net.transport", "Transport", "call", "net.call"),
    ("repro.net.local", "LocalTransport", "broadcast", "net.broadcast"),
    ("repro.storage.node", "StorageNode", "handle", "storage.handle"),
    ("repro.erasure.rs", "ReedSolomonCode", "decode", "erasure.decode"),
    ("repro.erasure.rs", "ReedSolomonCode", "delta", "erasure.delta"),
    ("repro.directory.local", "Directory", "node_id", "directory.node_id"),
    ("repro.obs.metrics", "MetricsRegistry", "counter", "obs.lookup"),
    ("repro.obs.metrics", "MetricsRegistry", "gauge", "obs.lookup"),
    ("repro.obs.metrics", "MetricsRegistry", "histogram", "obs.lookup"),
    ("repro.obs.metrics", "Counter", "inc", "obs.update"),
    ("repro.obs.metrics", "Histogram", "observe", "obs.update"),
] + [
    ("repro.gf.field", None, kernel, "gf.kernel")
    for kernel in ("add_block", "iadd_block", "sub_block", "mul_block",
                   "addmul_block", "delta_block")
]


def payload_bytes(obj: object) -> int:
    """ndarray bytes inside an RPC argument tuple or result."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(payload_bytes(item) for item in obj)
    if isinstance(obj, dict):
        return sum(payload_bytes(item) for item in obj.values())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            payload_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    return 0


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: op id -> (phase, root span name)
        self.ops: dict[int, tuple[str, str]] = {}
        self.phase = "fg"
        self._ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def begin(self, name: str, attr=None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            parent_id, op = parent[0], parent[2]
        else:
            parent_id, op = 0, next(self._op_ids)
            self.ops[op] = (self.phase, name)
        rec = [next(self._ids), parent_id, op, name, perf(), 0.0, attr]
        stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[5] = perf()
        self._stack().pop()
        self.spans.append(rec)

    # -- patching -------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, owner_name, attr, name in ENTRY_POINTS:
            module = sys.modules[module_name]
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attr)
            if name == "net.call":
                wrapper = self._wrap_call(original)
            elif name == "net.broadcast":
                wrapper = self._wrap_broadcast(original)
            elif name == "storage.handle":
                wrapper = self._wrap_handle(original)
            else:
                wrapper = self._wrap(original, name)
            self._set(owner, attr, wrapper)
        # Functions imported by name are patched where they are looked up.
        # estimate_size recurses through its own module global, so patching
        # only the importers records the outermost call alone.
        from repro.net import message, rpc

        pfor = self._wrap_pfor(rpc.pfor)
        sizing = self._wrap(message.estimate_size, "net.estimate_size")
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is message:
                continue
            if getattr(module, "pfor", None) is rpc.pfor and module is not rpc:
                self._set(module, "pfor", pfor)
            if getattr(module, "estimate_size", None) is message.estimate_size:
                self._set(module, "estimate_size", sizing)
        self._set(rpc, "pfor", pfor)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(rec)

        return wrapper

    def _wrap_handle(self, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def handle(node, op, *args, **kwargs):
            rec = begin("storage.handle", op)
            try:
                return fn(node, op, *args, **kwargs)
            finally:
                end(rec)

        return handle

    def _wrap_call(self, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def call(transport, src, dst, op, *args, **kwargs):
            # attr: [op, messages, request bytes, response bytes]
            attr = [op, 1, payload_bytes(args) + payload_bytes(kwargs), 0]
            rec = begin("net.call", attr)
            try:
                result = fn(transport, src, dst, op, *args, **kwargs)
            finally:
                end(rec)
            attr[1] = 2
            attr[3] = payload_bytes(result)
            return result

        return call

    def _wrap_broadcast(self, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def broadcast(transport, src, dsts, op, *args, **kwargs):
            attr = [op, 1, payload_bytes(args) + payload_bytes(kwargs), 0]
            rec = begin("net.broadcast", attr)
            try:
                results = fn(transport, src, dsts, op, *args, **kwargs)
            finally:
                end(rec)
            answered = [r for r in results.values() if not isinstance(r, Exception)]
            attr[1] += len(answered)
            attr[3] = payload_bytes(answered)
            return results

        return broadcast

    def _wrap_pfor(self, fn):
        begin, end, tls = self.begin, self.end, self._tls

        @functools.wraps(fn)
        def pfor(items, body, **kwargs):
            rec = begin("net.pfor")

            def leg(item):
                previous = getattr(tls, "stack", None)
                tls.stack = [rec]
                leg_rec = begin("net.pfor.leg")
                try:
                    return body(item)
                finally:
                    end(leg_rec)
                    tls.stack = previous

            try:
                return fn(items, leg, **kwargs)
            finally:
                end(rec)

        return pfor

    # -- output ---------------------------------------------------------

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for op, (phase, root) in sorted(self.ops.items()):
                out.write(json.dumps({"op": op, "phase": phase, "root": root}))
                out.write("\n")
            for sid, parent, op, name, start, stop, attr in self.spans:
                out.write(json.dumps([sid, parent, op, name, start, stop, attr]))
                out.write("\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, cursor), min(stop, hi)
        if stop > start:
            total += stop - start
            cursor = stop
    return total


class Analysis:
    """Per-layer aggregates over one traced pass."""

    def __init__(self, recorder: Recorder):
        self.ops = recorder.ops
        self.spans = recorder.spans
        self.by_id = {rec[0]: rec for rec in self.spans}
        self.children: dict[int, list[list]] = defaultdict(list)
        self.by_name: dict[str, list[list]] = defaultdict(list)
        for rec in self.spans:
            if rec[1]:
                self.children[rec[1]].append(rec)
            self.by_name[rec[3]].append(rec)

    def self_time(self, rec: list) -> float:
        kids = [(c[4], c[5]) for c in self.children.get(rec[0], ())]
        return rec[5] - rec[4] - _covered(kids, rec[4], rec[5])

    def roots(self, phase: str, name: str) -> list[list]:
        return [
            rec for rec in self.by_name[name]
            if rec[1] == 0 and self.ops[rec[2]][0] == phase
        ]

    def within(self, op_ids: set[int], name: str) -> list[list]:
        return [rec for rec in self.by_name[name] if rec[2] in op_ids]

    def under(self, ancestor: str, name: str) -> list[list]:
        """Spans named ``name`` with an ``ancestor``-named span above them."""
        out = []
        for rec in self.by_name[name]:
            parent = self.by_id.get(rec[1])
            while parent is not None and parent[3] != ancestor:
                parent = self.by_id.get(parent[1])
            if parent is not None:
                out.append(rec)
        return out

    def outermost(self, recs: list[list], name: str) -> list[list]:
        """Drop spans whose parent has the same name (nested kernels)."""
        out = []
        for rec in recs:
            parent = self.by_id.get(rec[1])
            if parent is None or parent[3] != name:
                out.append(rec)
        return out


def _dur(recs) -> float:
    return sum(rec[5] - rec[4] for rec in recs)


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


STORAGE_OPS = ("swap", "add", "read", "get_state", "reconstruct",
               "gc_recent", "gc_old")


def layer_metrics(recorder: Recorder, delay, stats_delta: dict[str, int],
                  examined: int, recovered: int) -> tuple[dict, dict]:
    """Per-layer metric values (µs, counts, bytes), and for the wire
    sanity check the distinct message counts seen per read and per write."""
    a = Analysis(recorder)
    us = 1e6
    writes = a.roots("fg", "core.write_block")
    reads = a.roots("fg", "core.read_block")
    degraded = a.roots("degraded", "core.read_block")
    gcs = a.roots("fg", "core.collect_garbage")
    w_ops = {rec[2] for rec in writes}
    r_ops = {rec[2] for rec in reads}
    d_ops = {rec[2] for rec in degraded}
    fg_ops = w_ops | r_ops
    user_ops = fg_ops | d_ops
    nw, nr = len(writes), len(reads)

    def calls(op_ids):
        return a.within(op_ids, "net.call") + a.within(op_ids, "net.broadcast")

    def handle_time(rec):
        return sum(c[5] - c[4] for c in a.children.get(rec[0], ())
                   if c[3] == "storage.handle")

    def sizing_time(rec):
        return sum(c[5] - c[4] for c in a.children.get(rec[0], ())
                   if c[3] == "net.estimate_size")

    def modeled(rec):
        attr = rec[6]
        if rec[3] == "net.broadcast":
            return delay.one_way(attr[2]) + delay.latency
        return delay.one_way(attr[2]) + delay.one_way(attr[3])

    fg_calls = calls(fg_ops)
    user_calls = calls(user_ops)
    w_calls, r_calls = calls(w_ops), calls(r_ops)
    pfors = a.within(w_ops, "net.pfor")
    dispatch = []
    for rec in pfors:
        legs = [c[5] - c[4] for c in a.children.get(rec[0], ())]
        dispatch.append((rec[5] - rec[4]) - max(legs, default=0.0))
    recovers = a.by_name["client.recover"]
    recover_calls = a.under("client.recover", "net.call")
    probes = [
        rec for rec in a.within({r[2] for r in a.roots("rebuild", "core.rebuild")},
                                "net.call")
        if rec[6][0] == "probe"
    ]
    lookups = a.within(fg_ops, "directory.node_id")
    health = a.within(fg_ops, "client.health")
    registry = a.within(w_ops, "obs.lookup")
    kernels = a.outermost(a.within(w_ops, "gf.kernel"), "gf.kernel")
    handles = a.by_name["storage.handle"]
    fg_roots = writes + reads

    m: dict[str, float] = {
        "client.write.self_us": _per(
            sum(a.self_time(r) for r in a.within(w_ops, "client.write")), nw) * us,
        "client.read.self_us": _per(
            sum(a.self_time(r) for r in a.within(r_ops, "client.read")), nr) * us,
        "client.write_attempts_per_write": _per(
            stats_delta["write_attempts"], stats_delta["writes"]),
        "client.order_retries_per_write": _per(
            stats_delta["order_retries"], stats_delta["writes"]),
        "client.health.us_per_call": _per(_dur(health), len(health)) * us,
        "net.calls_per_write": _per(len(w_calls), nw),
        "net.calls_per_read": _per(len(r_calls), nr),
        "net.block_bytes_per_write": _per(
            sum(r[6][2] + r[6][3] for r in w_calls), nw),
        "net.call.self_us": _per(
            sum(r[5] - r[4] - handle_time(r) for r in fg_calls), len(fg_calls)) * us,
        "net.sizing_us_per_call": _per(
            sum(sizing_time(r) for r in fg_calls), len(fg_calls)) * us,
        "net.pfor.calls_per_write": _per(len(pfors), nw),
        "net.pfor.dispatch_us": _per(sum(dispatch), len(dispatch)) * us,
        "net.modeled_delay_us_per_op": _per(
            sum(modeled(r) for r in user_calls), len(user_ops)) * us,
        "net.sleep_overshoot_us_per_op": _per(
            sum(r[5] - r[4] - handle_time(r) - sizing_time(r) - modeled(r)
                for r in user_calls), len(user_ops)) * us,
    }
    for op in STORAGE_OPS:
        mine = [r for r in handles if r[6] == op]
        m[f"storage.handle_us.{op}"] = _per(_dur(mine), len(mine)) * us
        m[f"storage.calls.{op}"] = len(mine)
    m.update({
        "gf.us_per_write": _per(_dur(kernels), nw) * us,
        "erasure.decode_us_per_degraded_read": _per(
            _dur(a.within(d_ops, "erasure.decode")), len(degraded)) * us,
        "erasure.decode_calls": len(a.by_name["erasure.decode"]),
        "gc.us_per_write": _per(_dur(gcs), nw) * us,
        "gc.rpcs_per_write": _per(len(calls({r[2] for r in gcs})), nw),
        "recovery.us_per_stripe": _per(_dur(recovers), len(recovers)) * us,
        "recovery.rpcs_per_stripe": _per(len(recover_calls), len(recovers)),
        "recovery.block_bytes_per_repaired_block": _per(
            sum(r[6][2] + r[6][3] for r in recover_calls), recovered),
        "rebuild.probe_us_per_stripe": _per(_dur(probes), examined) * us,
        "directory.lookups_per_op": _per(len(lookups), len(fg_ops)),
        "directory.us_per_lookup": _per(_dur(lookups), len(lookups)) * us,
        "obs.registry_lookups_per_write": _per(len(registry), nw),
        "obs.us_per_write": _per(
            _dur(registry) + _dur(a.within(w_ops, "obs.update")), nw) * us,
        "trace.unattributed_share": _per(
            sum(a.self_time(r) for r in fg_roots), _dur(fg_roots)),
    })
    messages: dict[str, set[int]] = {}
    for kind, op_ids in (("read", r_ops), ("write", w_ops)):
        counts = dict.fromkeys(op_ids, 0)
        for rec in calls(op_ids):
            counts[rec[2]] += rec[6][1]
        messages[kind] = set(counts.values())
    return m, messages
