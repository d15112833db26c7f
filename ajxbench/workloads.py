"""Workloads, seeded input generation and the closed-loop load generator.

Every input — key sequence, read/write mix, payloads, crash slot and the
blocks aimed at by degraded reads — comes from this file and the
``--seed`` argument, never from ``repro.workloads`` or ``repro.sim``, so a
change to the program cannot change what the benchmark feeds it.

A run repeats three phases ``CYCLES`` times on one cluster:

1. *foreground*: every client runs a closed loop (it waits for each reply
   before issuing the next op, like a virtual disk), with one inline GC
   round after every ``GC_PERIOD`` of its own writes;
2. *degraded*: one storage slot is crashed with ``policy="remap"`` and
   client 0 reads only blocks that lived on it, so every read decodes;
3. *rebuild*: ``VolumeClient.rebuild`` sweeps every stripe, which restores
   full redundancy before the next cycle.

Then the correctness gate runs (see :func:`check_end_state`).
"""

from __future__ import annotations

import bisect
import math
import statistics
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro import ClientConfig, Cluster, WriteStrategy
from repro.errors import ReproError
from repro.net.local import DelayModel
from repro.obs import Observability
from repro.storage.store import MemoryStore

#: Inline GC round after this many writes by one client.  Without GC the
#: recentlists grow and write cost drifts with run length.
GC_PERIOD = 256
#: Distinct payload bodies per client; each write stamps a unique prefix.
PAYLOADS = 32
#: Latency samples per percentile window (100 beyond its p90); also the fewest
#: foreground reads and writes per client, and degraded reads per run.
WINDOW = 1000
#: Each rebuild sweeps the stripes in this many contiguous sub-sweeps; the
#: median sub-sweep rate is reported, so one stall does not set the figure.
REBUILD_SWEEPS = 8
#: Foreground / degraded / rebuild cycles per untraced run.  Spreading each
#: phase over the run makes a slow spell of the host hit every metric alike
#: instead of the one phase it happened to overlap.
CYCLES = 2

perf = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    n: int
    block_size: int
    strategy: WriteStrategy
    observed: bool
    lan: bool
    clients: int
    read_share: float
    #: Logical working set, in blocks.
    blocks: int
    #: Share of stripes that are hot (0 = uniform keys) and the share of
    #: ops aimed at blocks in hot stripes.
    hot_stripes: float
    hot_ops: float
    #: Shares of ``--seconds`` for the foreground and degraded phases.
    fg_share: float
    degraded_share: float
    #: Traced-pass lengths per second of ``--seconds``: the traced pass is
    #: counted, not timed, so its exact counts repeat for a seed.
    trace_fg_ops_per_s: int
    trace_degraded_per_s: int

    @property
    def stripes(self) -> int:
        return math.ceil(self.blocks / self.k)

    def delay(self) -> DelayModel:
        return DelayModel.paper_lan() if self.lan else DelayModel()

    def expected_messages(self) -> tuple[int, int] | None:
        """Fig. 1's AJX column (messages per read, per write) where it is
        exact: one uncontended client with serial adds."""
        if self.clients == 1 and self.strategy is WriteStrategy.SERIAL:
            return 2, 2 * (1 + self.n - self.k)
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rw-3of5-serial", k=3, n=5, block_size=1024,
            strategy=WriteStrategy.SERIAL, observed=False, lan=False,
            clients=1, read_share=0.7, blocks=4096,
            hot_stripes=0.0, hot_ops=0.0,
            fg_share=0.5, degraded_share=0.15,
            trace_fg_ops_per_s=120, trace_degraded_per_s=15,
        ),
        Workload(
            name="rw-14of16-parallel-obs", k=14, n=16, block_size=4096,
            strategy=WriteStrategy.PARALLEL, observed=True, lan=False,
            clients=2, read_share=0.3, blocks=1792,
            hot_stripes=0.1, hot_ops=0.8,
            fg_share=0.55, degraded_share=0.3,
            trace_fg_ops_per_s=50, trace_degraded_per_s=7,
        ),
        Workload(
            name="repair-14of16-lan", k=14, n=16, block_size=4096,
            strategy=WriteStrategy.PARALLEL, observed=False, lan=True,
            clients=1, read_share=0.5, blocks=1792,
            hot_stripes=0.0, hot_ops=0.0,
            fg_share=0.5, degraded_share=0.4,
            trace_fg_ops_per_s=35, trace_degraded_per_s=10,
        ),
    )
}


def _rng(seed: int, workload: Workload, *stream: int) -> np.random.Generator:
    return np.random.default_rng(
        [seed, zlib.crc32(workload.name.encode()), *stream]
    )


class Client:
    """One closed-loop client: its volume handle, its seeded op stream and
    a model of every value it wrote (clients own disjoint blocks, so the
    model is exact and every read can be checked)."""

    def __init__(self, workload: Workload, cluster: Cluster, seed: int,
                 index: int, hot: np.ndarray):
        self.workload = workload
        self.index = index
        config = ClientConfig(strategy=workload.strategy, degraded_reads=True)
        self.vol = cluster.client(f"client-{index}", config)
        self.own = np.arange(index, workload.blocks, workload.clients)
        in_hot = np.isin(self.own // workload.k, hot)
        self.hot = self.own[in_hot]
        self.cold = self.own[~in_hot]
        self.rng = _rng(seed, workload, 1, index)
        body = self.rng.bytes(PAYLOADS * workload.block_size)
        size = workload.block_size
        self.bodies = [body[i * size + 8:(i + 1) * size] for i in range(PAYLOADS)]
        self.seq = 0
        self.model: dict[int, bytes | None] = {}
        self.writes = 0
        self.read_s: list[float] = []
        self.write_s: list[float] = []
        #: perf_counter() at each completed foreground op.
        self.done_at: list[float] = []
        self.failed = 0
        self.mismatches: list[str] = []

    # -- inputs ---------------------------------------------------------

    def _payload(self, body: int) -> bytes:
        self.seq += 1
        stamp = (self.index << 48 | self.seq).to_bytes(8, "little")
        return stamp + self.bodies[body]

    def ops(self, chunk: int = 4096):
        """Endless seeded stream of (is_read, logical block, payload body)."""
        w = self.workload
        while True:
            reads = self.rng.random(chunk) < w.read_share
            bodies = self.rng.integers(0, PAYLOADS, chunk)
            if len(self.hot) and len(self.cold):
                pick_hot = self.rng.random(chunk) < w.hot_ops
                keys = np.where(
                    pick_hot,
                    self.hot[self.rng.integers(0, len(self.hot), chunk)],
                    self.cold[self.rng.integers(0, len(self.cold), chunk)],
                )
            else:
                keys = self.own[self.rng.integers(0, len(self.own), chunk)]
            yield from zip(reads.tolist(), keys.tolist(), bodies.tolist())

    # -- operations -----------------------------------------------------

    def read(self, logical: int, samples: list[float]) -> bool:
        try:
            start = perf()
            got = self.vol.read_block(logical)
            samples.append(perf() - start)
        except ReproError:
            self.failed += 1
            return False
        expected = self.model.get(logical)
        if expected is not None and got != expected:
            self.mismatches.append(
                f"client-{self.index} read of block {logical} returned "
                f"bytes that differ from the last value written"
            )
        return True

    def write(self, logical: int, body: int) -> bool:
        value = self._payload(body)
        self.model[logical] = None  # indeterminate until acknowledged
        try:
            start = perf()
            self.vol.write_block(logical, value)
            self.write_s.append(perf() - start)
        except ReproError:
            self.failed += 1
            return False
        self.model[logical] = value
        self.writes += 1
        if self.writes % GC_PERIOD == 0:
            self.vol.collect_garbage()
        return True

    def prefill(self) -> None:
        bodies = self.rng.integers(0, PAYLOADS, len(self.own)).tolist()
        for logical, body in zip(self.own.tolist(), bodies):
            value = self._payload(body)
            self.vol.write_block(logical, value)
            self.model[logical] = value

    def loop(self, deadline: float | None, count: int | None) -> None:
        """Closed loop until ``deadline`` (and the sample floors) or for
        exactly ``count`` ops."""
        done = 0
        for is_read, logical, body in self.ops():
            if count is not None:
                if done >= count:
                    return
            elif perf() >= deadline and min(
                len(self.read_s), len(self.write_s)
            ) >= WINDOW:
                return
            if (self.read(logical, self.read_s) if is_read
                    else self.write(logical, body)):
                self.done_at.append(perf())
            done += 1

    @property
    def completed(self) -> int:
        return len(self.read_s) + len(self.write_s)


@dataclass
class Deployment:
    cluster: Cluster
    clients: list[Client]
    setup_s: float


def deploy(workload: Workload, seed: int) -> Deployment:
    """Cluster build + prefill of the whole working set + warm GC.

    Set-up runs without the delay model, which is switched on afterwards:
    ``setup_s`` then tracks the program's own work rather than the host's
    sleep granularity."""
    start = perf()
    cluster = Cluster(
        workload.k, workload.n,
        block_size=workload.block_size,
        observability=Observability.create() if workload.observed else None,
        store_factory=lambda slot: MemoryStore(),
        seed=seed,
    )
    hot_count = round(workload.hot_stripes * workload.stripes)
    hot = _rng(seed, workload, 0).choice(
        workload.stripes, size=hot_count, replace=False
    )
    clients = [
        Client(workload, cluster, seed, i, hot) for i in range(workload.clients)
    ]
    for client in clients:
        client.prefill()
    for client in clients:
        client.vol.collect_garbage()
        client.vol.collect_garbage()
    setup_s = perf() - start
    cluster.transport.delay = workload.delay()
    return Deployment(cluster, clients, setup_s)


def foreground(dep: Deployment, seconds: float | None = None,
               count: int | None = None) -> tuple[float, float]:
    """Run every client's closed loop; returns the phase's start
    (perf_counter) and wall seconds."""
    start = perf()
    deadline = None if seconds is None else start + seconds
    share = None if count is None else count // len(dep.clients)
    if len(dep.clients) == 1:
        dep.clients[0].loop(deadline, share)
        return start, perf() - start
    errors: list[BaseException] = []

    def body(client: Client) -> None:
        try:
            client.loop(deadline, share)
        except BaseException as exc:  # surfaced on the main thread below
            errors.append(exc)
            raise

    threads = [
        threading.Thread(target=body, args=(c,), name=f"bench-{c.index}")
        for c in dep.clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return start, perf() - start


@dataclass
class RepairResult:
    slot: int
    attempts: int
    failed_reads: int
    degraded_s: list[float]
    degraded_decodes: int
    #: MB/s of each sub-sweep (recovered stripes × n × block size / s).
    rebuild_rates: list[float]
    recovered: int
    failed_stripes: list[int]


def repair(dep: Deployment, seed: int, cycle: int,
           seconds: float | None = None, count: int | None = None,
           mark=lambda phase: None) -> RepairResult:
    """Crash one seeded slot (a different one each ``cycle``), read only
    blocks that lived on it, then rebuild every stripe.  ``mark`` is told
    when each phase starts."""
    workload = dep.clients[0].workload
    client = dep.clients[0]
    slot = int(_rng(seed, workload, 2).permutation(workload.n)[cycle])
    rng = _rng(seed, workload, 3, cycle)
    layout = dep.cluster.layout
    targets = [
        logical for logical in client.own.tolist()
        if layout.locate(logical).node == slot
    ]
    stats = client.vol.protocol.stats
    decodes_before = stats.degraded_reads
    failed_before = client.failed
    mark("degraded")
    dep.cluster.crash_storage(slot, policy="remap")
    samples: list[float] = []
    attempts = 0
    start = perf()
    deadline = None if seconds is None else start + seconds
    while True:
        if count is not None:
            if attempts >= count:
                break
        elif perf() >= deadline and attempts >= WINDOW // CYCLES:
            break
        client.read(targets[int(rng.integers(len(targets)))], samples)
        attempts += 1
    decodes = stats.degraded_reads - decodes_before
    mark("rebuild")
    stripe_bytes = workload.n * workload.block_size
    rates: list[float] = []
    recovered: list[int] = []
    failed: list[int] = []
    bounds = np.linspace(0, workload.stripes, REBUILD_SWEEPS + 1).astype(int)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        start = perf()
        report = client.vol.rebuild(range(lo, hi))
        rates.append(len(report.recovered) * stripe_bytes / (perf() - start) / 1e6)
        recovered += report.recovered
        failed += report.failed
    mark("readback")
    return RepairResult(slot, attempts, client.failed - failed_before, samples,
                        decodes, rates, len(recovered), failed)


def check_end_state(dep: Deployment, reps: list[RepairResult],
                    inject: str | None = None) -> list[str]:
    """The correctness gate after a run; returns every violation found."""
    workload = dep.clients[0].workload
    cluster = dep.cluster
    problems: list[str] = []
    for client in dep.clients:
        problems.extend(client.mismatches)
    for rep in reps:
        if rep.degraded_decodes != len(rep.degraded_s):
            problems.append(
                f"{len(rep.degraded_s)} reads aimed at crashed slot "
                f"{rep.slot} but only {rep.degraded_decodes} were served by "
                f"decode"
            )
        if rep.failed_stripes:
            problems.append(f"rebuild failed stripes {rep.failed_stripes[:8]}")
        if rep.recovered != workload.stripes:
            problems.append(
                f"rebuild recovered {rep.recovered} of {workload.stripes} "
                f"stripes"
            )
    if inject == "wrong-read":
        client = dep.clients[0]
        first = int(client.own[0])
        client.model[first] = bytes(workload.block_size)
    if inject == "bad-stripe":
        from repro.ids import BlockAddr

        node = cluster.node_for_slot(cluster.slot_of(0, workload.k))
        node.peek(BlockAddr(cluster.volume_name, 0, workload.k)).block[0] ^= 0xFF
    for client in dep.clients:
        for logical, expected in client.model.items():
            if expected is None:
                continue
            got = client.vol.read_block(logical)
            if got != expected:
                problems.append(
                    f"read-back of block {logical} (client-{client.index}) "
                    f"differs from the last value written"
                )
    bad = [s for s in range(workload.stripes) if not cluster.stripe_consistent(s)]
    if bad:
        problems.append(f"{len(bad)} stripes violate the code, first {bad[:8]}")
    problems.extend(cluster.verify_store_consistency())
    return problems


def space_amp(dep: Deployment) -> float:
    """Block bytes plus protocol metadata per user byte."""
    workload = dep.clients[0].workload
    cluster = dep.cluster
    stored = cluster.block_count() * workload.block_size + cluster.metadata_bytes()
    user = sum(len(c.model) for c in dep.clients) * workload.block_size
    return stored / user


def p90(samples: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def windowed_p90(series: list[list[float]]) -> float:
    """Median of the p90s of consecutive ``WINDOW``-sample windows of each
    client's samples, so a host stall in one window does not set the
    figure; the plain p90 when no series fills a window."""
    windows = [
        p90(samples[i:i + WINDOW])
        for samples in series
        for i in range(0, len(samples) - WINDOW + 1, WINDOW)
    ]
    if not windows:
        return p90([s for samples in series for s in samples])
    return statistics.median(windows)


def ops_per_s(clients: list[Client],
              segments: list[tuple[float, float]]) -> float:
    """Median, over the whole seconds of the foreground segments
    ``(start, wall)``, of the ops completed in each second; the plain
    average when the segments hold fewer than two whole seconds."""
    done = sorted(t for c in clients for t in c.done_at)
    bins = [
        bisect.bisect_left(done, start + i + 1) - bisect.bisect_left(done, start + i)
        for start, wall in segments
        for i in range(int(wall))
    ]
    if len(bins) < 2:
        return len(done) / sum(wall for _, wall in segments)
    return statistics.median(bins)
