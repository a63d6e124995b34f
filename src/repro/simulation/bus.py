"""HIBI bus simulation: segment occupancy, arbitration, bridged transfers.

A transfer between PEs crosses the sequence of segments
:meth:`~repro.platform.model.PlatformModel.transfer_path` returns,
store-and-forward at bridge boundaries (HIBI bridges buffer a burst before
re-arbitrating on the next segment).  Each segment grants pending requests
by its arbitration policy:

* ``priority`` — lowest wrapper ``PriorityClass`` wins, FIFO among equals;
* ``round-robin`` — rotate over wrapper addresses, starting after the last
  served address.

A wrapper's ``MaxTime`` (maximum segment reservation) splits long transfers
into chunks, each paying arbitration again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.observability.tracer import Tracer, bus_track
from repro.platform.components import SegmentSpec, WrapperSpec
from repro.platform.model import PlatformModel
from repro.simulation.kernel import (
    EV_ARGS,
    EV_CALLBACK,
    EV_SEQ,
    EV_TIME,
    Kernel,
    cycles_to_ps,
)


@dataclass
class TransferStats:
    """Aggregate bus statistics, per segment."""

    transfers: int = 0
    words: int = 0
    busy_ps: int = 0
    wait_ps: int = 0


@dataclass
class _Transfer:
    path: List[str]                   # remaining segments to cross
    agents: List[str]                 # agent requesting each remaining hop
    size_bytes: int
    on_complete: Callable[..., None]  # on_complete(latency_ps, *payload)
    started_ps: int = 0
    enqueued_ps: int = 0
    granted_ps: int = 0  # grant instant of the current (or last) hop
    # fault injection (None without a fault plan): the injected fault kind
    # and the payload after corruption, resolved via on_fault at delivery
    fault: Optional[str] = None
    fault_args: tuple = ()
    on_fault: Optional[Callable[..., None]] = None
    # the callbacks' trailing arguments, kept live; a checkpoint encodes
    # them through the owner's encoder, and a restore rebuilds callbacks
    # and payload through its resolver
    payload: tuple = ()


class _SegmentRuntime:
    def __init__(self, name: str, spec: SegmentSpec) -> None:
        self.name = name
        self.spec = spec
        self.busy = False
        self.queue: List[tuple] = []  # (wrapper_spec, transfer)
        self.last_served_address = -1
        self.stats = TransferStats()
        # (id(wrapper), bytes) -> (occupancy ps, words) of a hop, priced on
        # its first grant; the platform keeps the wrappers alive
        self.hops: Dict[Tuple[int, int], Tuple[int, int]] = {}


class HibiBus:
    """Cycle-approximate model of the platform's segmented interconnect."""

    def __init__(
        self,
        platform: PlatformModel,
        kernel: Kernel,
        faults=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.platform = platform
        self.kernel = kernel
        # an optional repro.faults.FaultInjector (the run's); None keeps
        # transfers fault-free with zero per-transfer overhead
        self.faults = faults
        # an optional repro.observability.Tracer: one grant→release span per
        # hop (appended at release) and request-queue depth samples per
        # segment, same None-gated pattern
        self.tracer = tracer
        self.segments: Dict[str, _SegmentRuntime] = {
            name: _SegmentRuntime(name, instance.spec)
            for name, instance in platform.segments.items()
        }
        # the platform is static during a run: each PE pair's route
        # (segments, requesting agent per hop) and each (agent, segment)
        # wrapper is looked up once, on first use; failures are not kept
        self._routes: Dict[Tuple[str, str], Tuple[List[str], List[str]]] = {}
        self._wrappers: Dict[Tuple[str, str], WrapperSpec] = {}

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    def transfer(
        self,
        source_pe: str,
        target_pe: str,
        size_bytes: int,
        on_complete: Callable[..., None],
        signal: str = "",
        args: tuple = (),
        on_fault: Optional[Callable[..., None]] = None,
        payload: tuple = (),
    ) -> None:
        """Start a transfer; ``on_complete(latency_ps, *payload)`` fires on delivery.

        With a fault plan installed, the transfer's fate is decided here
        (keyed off the current kernel clock).  A corrupted or dropped frame
        still occupies the bus normally; at delivery time
        ``on_fault(kind, latency_ps, args, *payload)`` fires instead of
        ``on_complete`` — with the bit-flipped payload for a corruption,
        and not at all for a drop when no ``on_fault`` is given.
        ``payload`` is passed to the callbacks as is; it is encoded only
        when a snapshot is taken (see :meth:`state_dict`).
        """
        route = self._routes.get((source_pe, target_pe))
        if route is None:
            path = self.platform.transfer_path(source_pe, target_pe)
            if not path:
                raise SimulationError(
                    f"transfer {source_pe!r}->{target_pe!r} needs no bus; "
                    "deliver locally instead"
                )
            route = self._routes[(source_pe, target_pe)] = (
                path, [source_pe] + path[:-1]
            )
        path, agents = route
        transfer = _Transfer(
            path=list(path),
            agents=list(agents),
            size_bytes=size_bytes,
            on_complete=on_complete,
            started_ps=self.kernel.now_ps,
            payload=payload,
        )
        if self.faults is not None:
            kind, fault_args = self.faults.apply_bus_fault(
                signal, tuple(args), source_pe, target_pe, self.kernel.now_ps
            )
            if kind is not None:
                transfer.fault = kind
                transfer.fault_args = fault_args
                transfer.on_fault = on_fault
        self._request_next_hop(transfer)

    def stats(self) -> Dict[str, TransferStats]:
        """Per-segment aggregate transfer statistics (live references)."""
        return {name: runtime.stats for name, runtime in self.segments.items()}

    def utilization(self, end_time_ps: int) -> Dict[str, float]:
        """Fraction of time each segment was occupied."""
        if end_time_ps <= 0:
            return {name: 0.0 for name in self.segments}
        return {
            name: min(1.0, runtime.stats.busy_ps / end_time_ps)
            for name, runtime in self.segments.items()
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _wrapper_between(self, agent: str, segment: str) -> WrapperSpec:
        spec = self._wrappers.get((agent, segment))
        if spec is not None:
            return spec
        for wrapper in self.platform.wrappers:
            if (wrapper.agent_name, wrapper.segment_name) in (
                (agent, segment),
                (segment, agent),
            ):
                self._wrappers[(agent, segment)] = wrapper.spec
                return wrapper.spec
        raise SimulationError(f"no wrapper between {agent!r} and {segment!r}")

    def _request_next_hop(self, transfer: _Transfer) -> None:
        if not transfer.path:
            latency = self.kernel.now_ps - transfer.started_ps
            if transfer.fault is not None:
                if transfer.on_fault is not None:
                    transfer.on_fault(
                        transfer.fault, latency, transfer.fault_args, *transfer.payload
                    )
                return
            transfer.on_complete(latency, *transfer.payload)
            return
        segment_name = transfer.path[0]
        agent = transfer.agents[0]
        runtime = self.segments[segment_name]
        wrapper = self._wrapper_between(agent, segment_name)
        transfer.enqueued_ps = self.kernel.now_ps
        runtime.queue.append((wrapper, transfer))
        if self.tracer is not None:
            # wrapper FIFO depth: its high-water mark is the contention metric
            self.tracer.counter(
                "requests",
                bus_track(segment_name),
                {"depth": len(runtime.queue)},
                time_ps=self.kernel.now_ps,
            )
        if not runtime.busy:
            self._grant(runtime)

    def _grant(self, runtime: _SegmentRuntime) -> None:
        queue = runtime.queue
        if runtime.busy or not queue:
            return
        # a lone request wins arbitration under either policy
        index = 0 if len(queue) == 1 else self._select(runtime)
        wrapper, transfer = queue.pop(index)
        runtime.busy = True
        runtime.last_served_address = wrapper.address
        key = (id(wrapper), transfer.size_bytes)
        hop = runtime.hops.get(key)
        if hop is None:
            spec = runtime.spec
            occupancy_cycles = self._occupancy_cycles(spec, wrapper, transfer)
            hop = runtime.hops[key] = (
                cycles_to_ps(occupancy_cycles, spec.frequency_hz),
                spec.words_for_bytes(transfer.size_bytes),
            )
        duration_ps, words = hop
        stats = runtime.stats
        stats.transfers += 1
        stats.words += words
        stats.busy_ps += duration_ps
        stats.wait_ps += self.kernel.now_ps - transfer.enqueued_ps
        transfer.granted_ps = self.kernel.now_ps
        self.kernel.schedule(duration_ps, self._release, runtime, transfer)

    def _release(self, runtime: _SegmentRuntime, transfer: _Transfer) -> None:
        runtime.busy = False
        if self.tracer is not None:
            # the hop's grant span, appended once its end is known
            args = {
                "bytes": transfer.size_bytes,
                "wait_ps": transfer.granted_ps - transfer.enqueued_ps,
            }
            if transfer.fault is not None:
                args["fault"] = transfer.fault
            self.tracer.span(
                transfer.agents[0],
                bus_track(runtime.name),
                transfer.granted_ps,
                self.kernel.now_ps - transfer.granted_ps,
                category="bus",
                **args,
            )
        transfer.path = transfer.path[1:]
        transfer.agents = transfer.agents[1:]
        self._request_next_hop(transfer)
        self._grant(runtime)

    def _select(self, runtime: _SegmentRuntime) -> int:
        """Index into ``runtime.queue`` of the transfer to grant next."""
        if runtime.spec.arbitration == "round-robin":
            best_index = 0
            best_key = None
            for index, (wrapper, _) in enumerate(runtime.queue):
                # distance ahead of the last served address, cyclically
                distance = (wrapper.address - runtime.last_served_address) % (1 << 32)
                if distance == 0:
                    distance = 1 << 32
                key = (distance, index)
                if best_key is None or key < best_key:
                    best_key = key
                    best_index = index
            return best_index
        # priority: lowest PriorityClass wins, FIFO among equals
        best_index = 0
        best_key = None
        for index, (wrapper, _) in enumerate(runtime.queue):
            key = (wrapper.priority_class, index)
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    @staticmethod
    def _transfer_state(transfer: _Transfer, encode: Callable[[tuple], dict]) -> dict:
        return {
            "path": list(transfer.path),
            "agents": list(transfer.agents),
            "size_bytes": transfer.size_bytes,
            "started_ps": transfer.started_ps,
            "enqueued_ps": transfer.enqueued_ps,
            "granted_ps": transfer.granted_ps,
            "fault": transfer.fault,
            "fault_args": list(transfer.fault_args),
            "payload": encode(transfer.payload),
        }

    def _restore_transfer(
        self, data: dict, resolve: Callable[[dict], tuple]
    ) -> _Transfer:
        on_complete, on_fault, payload = resolve(data["payload"])
        return _Transfer(
            path=list(data["path"]),
            agents=list(data["agents"]),
            size_bytes=int(data["size_bytes"]),
            on_complete=on_complete,
            started_ps=int(data["started_ps"]),
            enqueued_ps=int(data["enqueued_ps"]),
            granted_ps=int(data["granted_ps"]),
            fault=data["fault"],
            fault_args=tuple(data["fault_args"]),
            on_fault=on_fault if data["fault"] is not None else None,
            payload=payload,
        )

    def state_dict(self, encode: Callable[[tuple], dict]) -> dict:
        """Per-segment arbiter state, queues, stats and in-flight transfers.

        Transfer callbacks are not serialized — ``encode(payload)`` turns
        each transfer's live payload into a JSON-safe description instead,
        and :meth:`load_state_dict` rebuilds callbacks and payload from it
        through a resolver.  Granted transfers are read from the kernel's
        pending ``_release`` events.
        """
        release = self._release
        granted = {}
        for event in self.kernel.pending_events():
            if event[EV_CALLBACK] == release:
                runtime, transfer = event[EV_ARGS]
                granted[runtime.name] = {
                    "transfer": self._transfer_state(transfer, encode),
                    "release_ps": event[EV_TIME],
                    "sequence": event[EV_SEQ],
                }
        segments = {}
        for name in sorted(self.segments):
            runtime = self.segments[name]
            segments[name] = {
                "busy": runtime.busy,
                "last_served_address": runtime.last_served_address,
                "stats": {
                    "transfers": runtime.stats.transfers,
                    "words": runtime.stats.words,
                    "busy_ps": runtime.stats.busy_ps,
                    "wait_ps": runtime.stats.wait_ps,
                },
                "queue": [
                    self._transfer_state(transfer, encode)
                    for _, transfer in runtime.queue
                ],
                "active": granted.get(name),
            }
        return {"segments": segments}

    def load_state_dict(
        self, state: dict, resolve: Callable[[dict], tuple]
    ) -> None:
        """Restore a snapshot.

        ``resolve(encoded) -> (on_complete, on_fault, payload)`` inverts
        the encoder :meth:`state_dict` was given.

        Queued requests get their wrapper specs re-looked-up from the
        platform; granted transfers re-materialize their pending
        ``_release`` kernel events with the original sequence numbers.
        """
        for runtime in self.segments.values():
            if runtime.busy or runtime.queue:
                raise SimulationError(
                    "load_state_dict needs a fresh bus (transfers already "
                    "in flight)"
                )
        for name, data in state["segments"].items():
            runtime = self.segments.get(name)
            if runtime is None:
                raise SimulationError(
                    f"snapshot references unknown bus segment {name!r}"
                )
            runtime.busy = bool(data["busy"])
            runtime.last_served_address = int(data["last_served_address"])
            stats = data["stats"]
            runtime.stats = TransferStats(
                transfers=int(stats["transfers"]),
                words=int(stats["words"]),
                busy_ps=int(stats["busy_ps"]),
                wait_ps=int(stats["wait_ps"]),
            )
            for transfer_data in data["queue"]:
                transfer = self._restore_transfer(transfer_data, resolve)
                wrapper = self._wrapper_between(
                    transfer.agents[0], transfer.path[0]
                )
                runtime.queue.append((wrapper, transfer))
            if data["active"] is not None:
                self.kernel.restore_event(
                    int(data["active"]["release_ps"]),
                    int(data["active"]["sequence"]),
                    self._release,
                    runtime,
                    self._restore_transfer(data["active"]["transfer"], resolve),
                )

    def _occupancy_cycles(
        self, spec: SegmentSpec, wrapper: WrapperSpec, transfer: _Transfer
    ) -> int:
        transfer_cycles = spec.transfer_cycles(transfer.size_bytes)
        chunks = 1
        if wrapper.max_reservation_cycles > 0:
            chunks = -(-transfer_cycles // wrapper.max_reservation_cycles)
        return transfer_cycles + chunks * spec.arbitration_cycles
