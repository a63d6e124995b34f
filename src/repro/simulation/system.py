"""Full-system simulation: application × platform × mapping → log-file.

This is the executable stand-in for the paper's "Simulation" box in
Figure 2: application processes run as EFSMs on their mapped processing
elements (non-preemptive priority scheduling per PE), signals between PEs
cross the HIBI bus model, and everything is recorded in the simulation
log-file the profiling tool consumes.

Environment (testbench) processes execute outside the platform with zero
cycle cost — the paper's Table 4 reports the Environment row at 0 cycles.
"""

from __future__ import annotations


from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
from repro.application.model import ApplicationModel
from repro.mapping.model import MappingModel
from repro.observability.tracer import SYSTEM_TRACK, Tracer, pe_track
from repro.platform.components import ProcessingElementSpec
from repro.platform.model import PlatformModel
from repro.simulation.bus import HibiBus, TransferStats
from repro.simulation.executor import (
    MachineTable,
    ProcessExecutor,
    SendIntent,
    StepOutcome,
)
from repro.simulation.kernel import (
    EV_ARGS,
    EV_CALLBACK,
    EV_SEQ,
    EV_TIME,
    PS_PER_US,
    Kernel,
    cycles_to_ps,
    event_pending,
)
# ``parse_log`` stays importable from here (the repository benchmark's
# span recorder looks it up in this module) even though a run's log is
# handed over from the writer's records instead of re-parsed.
from repro.simulation.logfile import (  # noqa: F401
    ENVIRONMENT_PE,
    LogFile,
    LogWriter,
    RunAccount,
    TRANSPORT_BUS,
    TRANSPORT_ENV,
    TRANSPORT_LOCAL,
    meta_value,
    parse_log,
)
from repro.simulation.timing import (
    GUARD_STATEMENTS,
    TRANSITION_BASE_STATEMENTS,
    timer_duration_ps,
)
from repro.uml.statemachine import StateMachine


class _Route(NamedTuple):
    """A resolved send: where a (sender, signal, via) goes and what it costs."""

    receiver: str
    size_bytes: int
    sender_pe: Optional[str]
    receiver_pe: Optional[str]


class _Activation:
    """A pending reason to run a process: start, signal, or timer.

    ``trigger`` is its label in log and trace records: ``start``, the
    signal's name, or ``timer:<name>``.
    """

    __slots__ = (
        "kind",  # 'start' | 'signal' | 'timer'
        "trigger",
        "process",
        "signal",
        "args",
        "timer",
        "sender",
        "sent_ps",
        "transport",
        "bytes",
        "corrupt",  # payload was bit-corrupted in transit
    )

    def __init__(
        self,
        kind: str,
        process: str,
        signal: str = "",
        args: Tuple[int, ...] = (),
        timer: str = "",
        sender: str = "",
        sent_ps: int = 0,
        transport: str = TRANSPORT_LOCAL,
        bytes: int = 0,
        corrupt: bool = False,
    ) -> None:
        self.kind = kind
        self.trigger = (
            signal if kind == "signal" else f"timer:{timer}" if kind == "timer" else "start"
        )
        self.process = process
        self.signal = signal
        self.args = args
        self.timer = timer
        self.sender = sender
        self.sent_ps = sent_ps
        self.transport = transport
        self.bytes = bytes
        self.corrupt = corrupt

    def to_dict(self) -> dict:
        """JSON-safe form for checkpoint snapshots."""
        return {
            "kind": self.kind,
            "process": self.process,
            "signal": self.signal,
            "args": list(self.args),
            "timer": self.timer,
            "sender": self.sender,
            "sent_ps": self.sent_ps,
            "transport": self.transport,
            "bytes": self.bytes,
            "corrupt": self.corrupt,
        }

    @staticmethod
    def from_dict(data: dict) -> "_Activation":
        """Rebuild an activation from :meth:`to_dict` output."""
        return _Activation(
            kind=data["kind"],
            process=data["process"],
            signal=data["signal"],
            args=tuple(data["args"]),
            timer=data["timer"],
            sender=data["sender"],
            sent_ps=int(data["sent_ps"]),
            transport=data["transport"],
            bytes=int(data["bytes"]),
            corrupt=bool(data["corrupt"]),
        )


class _PERuntime:
    """Non-preemptive scheduler for one processing element.

    The ready-queue policy comes from the PE's «PlatformRtos» stereotype
    (paper future work): ``priority`` (default), ``fifo``, or
    ``round-robin`` over the mapped processes.  ``dispatch_overhead``
    cycles are charged per step when an RTOS is configured.  ``rates``
    holds each process's (cycles per statement, per send, per context
    switch) on this PE, resolved on its first step (:meth:`resolve_rates`).

    Ready entries are ``(rank, seq, priority, activation)``.  Priority and
    fifo keep them in a heap on ``(rank, seq)``, the rank being
    ``-priority`` or 0; round-robin appends them and scans at every pop.
    """

    def __init__(
        self,
        name: str,
        spec: ProcessingElementSpec,
        policy: str = "priority",
        dispatch_overhead_cycles: int = 0,
        tick_period_us: int = 0,
    ) -> None:
        self.name = name
        self.spec = spec
        self.rates: Dict[str, Tuple[int, int, int]] = {}
        self.policy = policy
        self.dispatch_overhead_cycles = dispatch_overhead_cycles
        self.tick_period_us = tick_period_us
        self.ready: List[tuple] = []  # (rank, seq, priority, activation)
        self.busy = False
        self.last_process: Optional[str] = None
        self._seq = 0
        self._scanned = policy == "round-robin"
        self._ranked = policy != "fifo" and not self._scanned  # priority

    def enqueue(self, activation: _Activation, priority: int) -> None:
        """Add an activation to the ready queue."""
        self._seq = seq = self._seq + 1
        entry = (-priority if self._ranked else 0, seq, priority, activation)
        if self._scanned:
            self.ready.append(entry)
        else:
            heappush(self.ready, entry)

    def pop(self) -> Optional[_Activation]:
        """Remove and return the next activation per the queue policy.

        Priority: highest priority, FIFO among equals; fifo: arrival order.
        """
        if not self.ready:
            return None
        if self._scanned:
            return self.ready.pop(self._round_robin_index())[3]
        return heappop(self.ready)[3]

    def ready_state(self) -> list:
        """The ready queue as ``[seq, priority, activation]`` rows in seq order."""
        return [
            [seq, priority, activation.to_dict()]
            for _, seq, priority, activation in sorted(self.ready, key=itemgetter(1))
        ]

    def load_ready(self, rows: list) -> None:
        """Restore :meth:`ready_state` output."""
        ranked = self._ranked
        self.ready = [
            (-priority if ranked else 0, seq, priority, _Activation.from_dict(data))
            for seq, priority, data in rows
        ]
        if not self._scanned:
            heapify(self.ready)

    def resolve_rates(self, process: str, process_type: str) -> Tuple[int, int, int]:
        """Cache ``process``'s cycles per statement, send and context switch."""
        spec = self.spec
        rates = self.rates[process] = (
            spec.statement_cycles(process_type),
            spec.signal_dispatch_cycles,
            spec.context_switch_cycles,
        )
        return rates

    # Both delays are computed on first use, so a bad cycle count raises
    # at the first step or delivery that needs it, and only then.
    @cached_property
    def receive_delay_ps(self) -> int:
        """Time the PE spends taking one signal off its wrapper."""
        return cycles_to_ps(self.spec.signal_dispatch_cycles, self.spec.frequency_hz)

    @cached_property
    def dispatch_overhead_ps(self) -> int:
        """Time the RTOS dispatcher adds to every step."""
        return cycles_to_ps(self.dispatch_overhead_cycles, self.spec.frequency_hz)

    def _round_robin_index(self) -> int:
        """The earliest entry of the 'next' process after the last served."""
        names = sorted({entry[3].process for entry in self.ready})
        if self.last_process is not None:
            after = [n for n in names if n > self.last_process]
            next_name = after[0] if after else names[0]
        else:
            next_name = names[0]
        candidates = [
            (entry[1], i)
            for i, entry in enumerate(self.ready)
            if entry[3].process == next_name
        ]
        return min(candidates)[1]


@dataclass
class SimulationResult:
    """Everything a simulation run produced."""

    writer: LogWriter
    end_time_ps: int
    dispatched_events: int
    pes: Tuple[str, ...]                  # the platform's processing elements
    bus_stats: Dict[str, TransferStats]
    fault_stats: Optional[object] = None  # repro.faults.FaultStats when injecting
    trace: Optional[Tracer] = None        # the run's tracer when tracing was on
    _log: Optional[LogFile] = field(default=None, repr=False)

    @property
    def log(self) -> LogFile:
        """The run's log, built on first use from the writer's records.

        It equals ``parse_log(self.writer.render())``: the same immutable
        record tuples in a fresh list, the meta spelled as the file
        spells it, and the end time; no text is rendered or parsed.
        """
        if self._log is None:
            writer = self.writer
            self._log = LogFile(
                {key: meta_value(writer.meta[key]) for key in sorted(writer.meta)},
                list(writer.records),
                writer.end_time_ps,
                self.pes,
            )
        return self._log

    @property
    def account(self) -> RunAccount:
        """The :attr:`log`'s account, with a row for every platform PE."""
        return self.log.account

    @property
    def pe_busy_ps(self) -> Dict[str, int]:
        """Picoseconds each processing element spent on logged steps."""
        return self.account.pe_busy_ps

    @property
    def dropped_signals(self) -> int:
        """Signals consumed without firing a transition (DROP records)."""
        return self.account.dropped

    def pe_utilization(self) -> Dict[str, float]:
        """Busy fraction of the simulated interval, per processing element."""
        return self.account.pe_utilization()


class SystemSimulation:
    """Executes an application mapped onto a platform.

    ``machine_tables`` is handed to every :class:`ProcessExecutor`: runs
    of one application that share it plan and compile each machine once.
    """

    def __init__(
        self,
        application: ApplicationModel,
        platform: PlatformModel,
        mapping: MappingModel,
        max_events: int = 5_000_000,
        faults=None,
        tracer: Optional[Tracer] = None,
        machine_tables: Optional[Dict[StateMachine, MachineTable]] = None,
    ) -> None:
        mapping.check_complete()
        self.application = application
        self.platform = platform
        self.mapping = mapping
        # The tracer mirrors the faults pattern: every hook sits behind a
        # None check, so an untraced run is byte-identical (log and all)
        # to the pre-observability simulator.  Live hooks emit only what no
        # log record holds; run() derives the rest from the records.
        self.tracer = tracer
        self.kernel = Kernel(max_events=max_events, tracer=tracer)
        if tracer is not None:
            tracer.bind_clock(lambda: self.kernel.now_ps)
        # A disabled plan (all rates zero, no windows) is treated exactly
        # like no plan: every fault hook stays behind a None check, so the
        # fault-free simulation is bit-identical to the pre-fault simulator.
        self.faults = faults if faults is not None and faults.enabled else None
        self.bus = HibiBus(
            platform, self.kernel, faults=self.faults, tracer=tracer
        )
        self.writer = LogWriter(
            meta={
                "application": application.top.name,
                "platform": platform.top.name,
            }
        )
        self.pe_runtimes: Dict[str, _PERuntime] = {
            name: _PERuntime(
                name,
                instance.spec,
                policy=instance.scheduling_policy(),
                dispatch_overhead_cycles=instance.dispatch_overhead_cycles(),
                tick_period_us=instance.tick_period_us(),
            )
            for name, instance in platform.processing_elements.items()
        }
        self.executors: Dict[str, ProcessExecutor] = {}
        self.pe_of_process: Dict[str, Optional[str]] = {}
        # the model is static during a run: per-process scheduling data is
        # read once here, and each (sender, signal, via) is routed once, on
        # its first send (see _route)
        self._priority_of: Dict[str, int] = {}
        self._process_type_of: Dict[str, str] = {}
        self._routes: Dict[Tuple[str, str, Optional[str]], _Route] = {}
        for name, process in application.processes.items():
            self.executors[name] = ProcessExecutor(
                name, process.behavior, machine_tables
            )
            self._priority_of[name] = process.priority()
            self._process_type_of[name] = process.process_type()
            # None for an environment process; check_complete() gave every
            # other process a PE
            self.pe_of_process[name] = mapping.pe_of_process(name)
        self.timers: Dict[Tuple[str, str], object] = {}
        self._started = False
        self._restored = False

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(self, duration_us: int) -> SimulationResult:
        """Run for ``duration_us`` microseconds of simulated time.

        After :meth:`load_state_dict` the run continues from the restored
        clock; the ``duration_us`` horizon is absolute simulated time, so
        a resumed run passes the *same* duration as the original."""
        if self._started:
            raise SimulationError("a SystemSimulation instance runs only once")
        self._started = True
        if not self._restored:
            # canonical start order (name-sorted): the same design produces
            # the same log regardless of model construction or reload order
            for name in sorted(self.application.processes):
                self.kernel.schedule(
                    0, self._deliver, _Activation(kind="start", process=name)
                )
        self.kernel.run(until_ps=duration_us * PS_PER_US)
        end = self.kernel.now_ps
        self.writer.finish(end)
        if self.tracer is not None:
            # the exec, efsm, signal, drop and fault events, derived from
            # the whole log (restored records included) after the live ones
            for record in self.writer.records:
                self.tracer.events.extend(record.trace_events())
        fault_stats = None
        if self.faults is not None:
            fault_stats = self.faults.stats
            self.writer.meta.update(fault_stats.as_meta(self.faults.seed))
        return SimulationResult(
            writer=self.writer,
            end_time_ps=end,
            # the kernel's lifetime counter survives checkpoint/restore, so
            # a resumed run reports the same total as an uninterrupted one
            dispatched_events=self.kernel.dispatched,
            pes=tuple(self.pe_runtimes),
            bus_stats=self.bus.stats(),
            fault_stats=fault_stats,
            trace=self.tracer,
        )

    # ------------------------------------------------------------------
    # activation delivery and execution
    # ------------------------------------------------------------------

    def _deliver(self, activation: _Activation) -> None:
        """An activation arrives at its process (kernel time = arrival)."""
        pe_name = self.pe_of_process[activation.process]
        if (
            self.faults is not None
            and pe_name is not None
            and self.faults.pe_crashed(pe_name, self.kernel.now_ps)
        ):
            # the PE is inside a crash window: the activation is lost
            self.writer.fault(
                time_ps=self.kernel.now_ps,
                kind="pe-crash",
                signal=activation.trigger,
                source=pe_name,
                target=activation.process,
            )
            self.writer.drop(
                time_ps=self.kernel.now_ps,
                process=activation.process,
                signal=activation.trigger,
                reason="pe-crash",
            )
            return
        if activation.kind == "signal":
            self.writer.signal(
                time_ps=self.kernel.now_ps,
                signal=activation.signal,
                sender=activation.sender,
                receiver=activation.process,
                bytes=activation.bytes,
                latency_ps=self.kernel.now_ps - activation.sent_ps,
                transport=activation.transport,
                corrupt=1 if activation.corrupt else 0,
            )
            if self.faults is not None and not activation.corrupt:
                # a clean delivery may repair an earlier tracked loss
                self.faults.note_delivery(activation.signal, activation.args)
        if pe_name is None:
            self._run_environment_step(activation)
            return
        runtime = self.pe_runtimes[pe_name]
        runtime.enqueue(activation, self._priority_of[activation.process])
        if self.tracer is not None:
            # ready-queue depth sample: its high-water mark feeds metrics
            self.tracer.counter(
                "ready", pe_track(pe_name), {"depth": len(runtime.ready)}
            )
        if not runtime.busy:
            self._start_next(runtime)

    def _start_next(self, runtime: _PERuntime) -> None:
        """Pop ready activations until one fires a step or the queue drains."""
        while not runtime.busy:
            activation = runtime.pop()
            if activation is None:
                return
            executor = self.executors[activation.process]
            if executor.terminated:
                continue
            outcome, reason = self._execute(executor, activation)
            if outcome is None:
                self.writer.drop(
                    time_ps=self.kernel.now_ps,
                    process=activation.process,
                    signal=activation.trigger,
                    reason=reason or "no-transition",
                )
                continue
            # the step's price: its work at the process's rates on this PE
            process = activation.process
            rates = runtime.rates.get(process)
            if rates is None:
                rates = runtime.resolve_rates(process, self._process_type_of[process])
            per_statement, per_send, per_switch = rates
            cycles = (
                TRANSITION_BASE_STATEMENTS
                + outcome.statements
                + GUARD_STATEMENTS * outcome.guards_evaluated
            ) * per_statement + len(outcome.sends) * per_send
            if runtime.last_process != process and runtime.last_process is not None:
                cycles += per_switch
            duration_ps = (
                cycles_to_ps(cycles, runtime.spec.frequency_hz)
                + runtime.dispatch_overhead_ps
            )
            cycles += runtime.dispatch_overhead_cycles
            if self.faults is not None:
                stalled_ps = self.faults.stall_duration_ps(
                    runtime.name, self.kernel.now_ps, duration_ps
                )
                if stalled_ps != duration_ps:
                    self.writer.fault(
                        time_ps=self.kernel.now_ps,
                        kind="pe-stall",
                        signal=activation.trigger,
                        source=runtime.name,
                        target=activation.process,
                    )
                    if self.tracer is not None:
                        # live: the time the stall adds is in no record
                        self.tracer.instant(
                            "pe-stall",
                            pe_track(runtime.name),
                            category="fault",
                            process=activation.process,
                            extra_ps=stalled_ps - duration_ps,
                        )
                    duration_ps = stalled_ps
            runtime.busy = True
            runtime.last_process = activation.process
            self.kernel.schedule(
                duration_ps,
                self._complete_step,
                runtime,
                activation,
                outcome,
                cycles,
                self.kernel.now_ps,
            )
            return

    def _execute(self, executor: ProcessExecutor, activation: _Activation):
        """Run the step ``activation`` triggers; ``(outcome, drop reason)``."""
        if activation.kind == "start":
            return executor.start(), None
        if activation.kind == "signal":
            return executor.consume_signal(activation.signal, activation.args)
        if activation.kind == "timer":
            self.timers.pop((activation.process, activation.timer), None)
            return executor.fire_timer(activation.timer)
        raise SimulationError(f"unknown activation kind {activation.kind!r}")

    def _complete_step(
        self,
        runtime: _PERuntime,
        activation: _Activation,
        outcome: StepOutcome,
        cycles: int,
        started_ps: int,
    ) -> None:
        runtime.busy = False
        self.writer.exec_step(
            time_ps=started_ps,
            process=activation.process,
            pe=runtime.name,
            cycles=cycles,
            duration_ps=self.kernel.now_ps - started_ps,
            from_state=outcome.from_state,
            to_state=outcome.to_state,
            trigger=activation.trigger,
            statements=outcome.statements,
            transitions=outcome.transitions,
        )
        self._apply_outcome(activation.process, outcome)
        self._start_next(runtime)

    def _run_environment_step(self, activation: _Activation) -> None:
        """Environment processes execute instantly at zero cycle cost."""
        executor = self.executors[activation.process]
        if executor.terminated:
            return
        outcome, reason = self._execute(executor, activation)
        if outcome is None:
            self.writer.drop(
                time_ps=self.kernel.now_ps,
                process=activation.process,
                signal=activation.trigger,
                reason=reason or "no-transition",
            )
            return
        self.writer.exec_step(
            time_ps=self.kernel.now_ps,
            process=activation.process,
            pe=ENVIRONMENT_PE,
            cycles=0,
            duration_ps=0,
            from_state=outcome.from_state,
            to_state=outcome.to_state,
            trigger=activation.trigger,
            statements=outcome.statements,
            transitions=outcome.transitions,
        )
        self._apply_outcome(activation.process, outcome)

    # ------------------------------------------------------------------
    # outcome side effects: timers and sends
    # ------------------------------------------------------------------

    def _apply_outcome(self, process_name: str, outcome: StepOutcome) -> None:
        # timer operations replay in program order: a reset after a set
        # cancels it, a second set re-arms (replacing the first)
        for operation, timer_name, duration_us in outcome.timer_ops:
            key = (process_name, timer_name)
            previous = self.timers.pop(key, None)
            if previous is not None:
                self.kernel.cancel(previous)
            if operation == "set":
                activation = _Activation(
                    kind="timer", process=process_name, timer=timer_name
                )
                delay_ps = timer_duration_ps(duration_us)
                pe_name = self.pe_of_process.get(process_name)
                if pe_name is not None:
                    tick_us = self.pe_runtimes[pe_name].tick_period_us
                    if tick_us > 0:
                        # RTOS tick bounds timer resolution: round up
                        tick_ps = timer_duration_ps(tick_us)
                        delay_ps = -(-delay_ps // tick_ps) * tick_ps
                self.timers[key] = self.kernel.schedule(
                    delay_ps, self._deliver, activation
                )
        for intent in outcome.sends:
            self._dispatch_send(process_name, intent)

    def _route(self, sender: str, signal_name: str, via: Optional[str]) -> _Route:
        """Resolve a send on its first occurrence; later sends reuse it.

        Only successes are kept, so an unroutable or undeclared signal
        raises at every send, starting with the first.
        """
        key = (sender, signal_name, via)
        route = self._routes.get(key)
        if route is None:
            receiver, _port = self.application.route(sender, signal_name, via)
            size = self.application.find_signal(signal_name).size_bytes()
            route = self._routes[key] = _Route(
                receiver,
                size,
                self.pe_of_process[sender],
                self.pe_of_process[receiver],
            )
        return route

    def _dispatch_send(self, sender: str, intent: SendIntent) -> None:
        receiver, size, sender_pe, receiver_pe = self._route(
            sender, intent.signal, intent.via
        )
        if self.tracer is not None:
            self.tracer.instant(
                intent.signal,
                SYSTEM_TRACK,
                category="dispatch",
                sender=sender,
                receiver=receiver,
            )
        deliveries = 1
        if self.faults is not None:
            fault = self.faults.apply_dispatch_fault(
                intent.signal, intent.args, sender, receiver, self.kernel.now_ps
            )
            if fault is not None:
                self.writer.fault(
                    time_ps=self.kernel.now_ps,
                    kind=fault,
                    signal=intent.signal,
                    source=sender,
                    target=receiver,
                )
                if fault == "signal-drop":
                    return  # the signal is lost before any transport
                deliveries = 2  # signal-dup: delivered twice, independently
        for _ in range(deliveries):
            activation = _Activation(
                kind="signal",
                process=receiver,
                signal=intent.signal,
                args=intent.args,
                sender=sender,
                sent_ps=self.kernel.now_ps,
                bytes=size,
            )
            self._transport(activation, sender_pe, receiver_pe)

    def _transport(
        self,
        activation: _Activation,
        sender_pe: Optional[str],
        receiver_pe: Optional[str],
    ) -> None:
        if sender_pe is None or receiver_pe is None:
            # Environment boundary: no platform transport involved.
            activation.transport = TRANSPORT_ENV
            self.kernel.schedule(0, self._deliver, activation)
        elif sender_pe == receiver_pe:
            activation.transport = TRANSPORT_LOCAL
            self.kernel.schedule(
                self.pe_runtimes[receiver_pe].receive_delay_ps,
                self._deliver,
                activation,
            )
        else:
            # Bus transport pays the wire latency plus the same receive
            # cost a local delivery pays (wrapper -> CPU hand-off).
            activation.transport = TRANSPORT_BUS
            self.bus.transfer(
                sender_pe,
                receiver_pe,
                activation.bytes,
                self._bus_delivered,
                signal=activation.signal,
                args=activation.args,
                on_fault=self._bus_fault if self.faults is not None else None,
                # both callbacks' trailing arguments, encoded only by a
                # snapshot (_encode_bus_payload)
                payload=(activation, receiver_pe),
            )

    def _bus_delivered(
        self, _latency_ps: int, activation: _Activation, receiver_pe: str
    ) -> None:
        """A bus transfer arrived: the receiver's PE takes it off its wrapper."""
        self.kernel.schedule(
            self.pe_runtimes[receiver_pe].receive_delay_ps, self._deliver, activation
        )

    def _bus_fault(
        self,
        kind: str,
        _latency_ps: int,
        args: Tuple[int, ...],
        activation: _Activation,
        receiver_pe: str,
    ) -> None:
        """A bus transfer resolved with an injected fault (at delivery time)."""
        self.writer.fault(
            time_ps=self.kernel.now_ps,
            kind=kind,
            signal=activation.signal,
            source=activation.sender,
            target=activation.process,
        )
        if kind == "bus-drop":
            return  # the frame is gone; only an ARQ timeout can notice
        # bus-corrupt: the frame arrives with a flipped payload bit — the
        # receiver's CRC check is responsible for catching it
        activation.args = tuple(args)
        activation.corrupt = True
        self.kernel.schedule(
            self.pe_runtimes[receiver_pe].receive_delay_ps, self._deliver, activation
        )

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The full simulation state as a JSON-safe dict.

        Callable only at a quiescent instant (between kernel dispatches —
        the :attr:`Kernel.after_event` hook, which is where the checkpoint
        subsystem calls it from).  Pending kernel events are not serialized
        as callbacks: the in-flight deliveries and steps are read from
        :meth:`Kernel.pending_events` by callback, and
        :meth:`load_state_dict` re-materializes them with their original
        sequence numbers, so a resumed run replays byte-identically.
        """
        deliver = self._deliver
        complete_step = self._complete_step
        deliveries = []
        steps = {}
        for event in self.kernel.pending_events():
            callback = event[EV_CALLBACK]
            if callback == deliver:
                activation = event[EV_ARGS][0]
                if activation.kind != "timer":  # timer rows come from self.timers
                    deliveries.append(
                        {
                            "sequence": event[EV_SEQ],
                            "time_ps": event[EV_TIME],
                            "activation": activation.to_dict(),
                        }
                    )
            elif callback == complete_step:
                runtime, activation, outcome, cycles, started_ps = event[EV_ARGS]
                steps[runtime.name] = {
                    "activation": activation.to_dict(),
                    "outcome": outcome.to_dict(),
                    "cycles": cycles,
                    "started_ps": started_ps,
                    "time_ps": event[EV_TIME],
                    "sequence": event[EV_SEQ],
                }
        runtimes = {
            name: {
                "ready": runtime.ready_state(),
                "busy": runtime.busy,
                "last_process": runtime.last_process,
                "seq": runtime._seq,
                "active_step": steps.get(name),
            }
            for name, runtime in sorted(self.pe_runtimes.items())
        }
        return {
            "kernel": self.kernel.state_dict(),
            "executors": {
                name: self.executors[name].state_dict()
                for name in sorted(self.executors)
            },
            "runtimes": runtimes,
            "timers": [
                {
                    "process": process,
                    "timer": timer,
                    "time_ps": event[EV_TIME],
                    "sequence": event[EV_SEQ],
                }
                for (process, timer), event in sorted(self.timers.items())
                if event_pending(event)
            ],
            "deliveries": deliveries,
            "bus": self.bus.state_dict(self._encode_bus_payload),
            "writer": self.writer.state_dict(),
            "faults": (
                self.faults.state_dict() if self.faults is not None else None
            ),
            "tracer": (
                self.tracer.state_dict() if self.tracer is not None else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot onto this freshly-constructed simulation.

        The simulation must have been built from the *same* application,
        platform, mapping and configuration (tracer on/off, fault seed) as
        the one that produced the snapshot; mismatches raise
        :class:`SimulationError`.  After restoring, call :meth:`run` with
        the original duration to continue the run."""
        if self._started:
            raise SimulationError(
                "load_state_dict needs a fresh simulation (already run)"
            )
        if (state["tracer"] is not None) != (self.tracer is not None):
            raise SimulationError(
                "snapshot/simulation tracer mismatch: both or neither must "
                "have tracing enabled"
            )
        if (state["faults"] is not None) != (self.faults is not None):
            raise SimulationError(
                "snapshot/simulation fault-plan mismatch: both or neither "
                "must have fault injection enabled"
            )
        self.kernel.load_state_dict(state["kernel"])
        for name, executor_state in state["executors"].items():
            executor = self.executors.get(name)
            if executor is None:
                raise SimulationError(
                    f"snapshot references unknown process {name!r}"
                )
            executor.load_state_dict(executor_state)
        for name, runtime_state in state["runtimes"].items():
            runtime = self.pe_runtimes.get(name)
            if runtime is None:
                raise SimulationError(
                    f"snapshot references unknown processing element {name!r}"
                )
            runtime.load_ready(runtime_state["ready"])
            runtime.busy = bool(runtime_state["busy"])
            runtime.last_process = runtime_state["last_process"]
            runtime._seq = int(runtime_state["seq"])
            step = runtime_state["active_step"]
            if step is not None:
                self.kernel.restore_event(
                    int(step["time_ps"]),
                    int(step["sequence"]),
                    self._complete_step,
                    runtime,
                    _Activation.from_dict(step["activation"]),
                    StepOutcome.from_dict(step["outcome"]),
                    int(step["cycles"]),
                    int(step["started_ps"]),
                )
        for entry in state["timers"]:
            activation = _Activation(
                kind="timer", process=entry["process"], timer=entry["timer"]
            )
            self.timers[(entry["process"], entry["timer"])] = (
                self.kernel.restore_event(
                    int(entry["time_ps"]),
                    int(entry["sequence"]),
                    self._deliver,
                    activation,
                )
            )
        for entry in state["deliveries"]:
            self.kernel.restore_event(
                int(entry["time_ps"]),
                int(entry["sequence"]),
                self._deliver,
                _Activation.from_dict(entry["activation"]),
            )
        self.bus.load_state_dict(state["bus"], self._resolve_bus_payload)
        self.writer.load_state_dict(state["writer"])
        if self.faults is not None:
            self.faults.load_state_dict(state["faults"])
        if self.tracer is not None:
            self.tracer.load_state_dict(state["tracer"])
        self._restored = True

    @staticmethod
    def _encode_bus_payload(payload: tuple) -> dict:
        """The snapshot form of an in-flight transfer's payload."""
        activation, receiver_pe = payload
        return {"activation": activation.to_dict(), "receiver_pe": receiver_pe}

    def _resolve_bus_payload(self, data: dict) -> tuple:
        """Rebuild an in-flight transfer's callbacks and payload."""
        payload = (_Activation.from_dict(data["activation"]), data["receiver_pe"])
        return self._bus_delivered, self._bus_fault, payload
