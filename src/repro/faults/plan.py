"""Deterministic, seeded fault models for the system simulator.

The paper's TUTMAC case study carries a CRC-32 hardware accelerator whose
whole purpose is detecting corrupted frames, yet a perfect simulation never
produces one.  A :class:`FaultPlan` turns the simulator into a robustness
testbed: it decides — reproducibly, from a seed — which HIBI transfers
corrupt or vanish, which signals are lost or duplicated at dispatch, and
when processing elements stall or crash.

A plan is a frozen value: the design flow, the simulator and exploration
specs all take the same object, and equal plans compare and hash equal.
Each run injects through its own :class:`FaultInjector`, which holds what
the run changes (RNG position, :class:`FaultStats` ledger, pending
losses), so one plan drives any number of identical runs.

Design constraints:

* **Bit-reproducible.**  Every decision is a pure function of
  ``(seed, site, kernel clock, draw counter)`` — no global RNG state, no
  wall-clock.  Two runs with the same seed produce byte-identical logs.
* **Zero-cost when disabled.**  A plan with all rates zero and no windows
  reports :attr:`FaultPlan.enabled` ``False`` and the simulator treats it
  exactly like ``faults=None``: no draws, no extra records, identical
  output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.errors import SimulationError

# fault kinds (the ``kind=`` vocabulary of FAULT log records)
BUS_CORRUPT = "bus-corrupt"
BUS_DROP = "bus-drop"
SIGNAL_DROP = "signal-drop"
SIGNAL_DUP = "signal-dup"
PE_STALL = "pe-stall"
PE_CRASH = "pe-crash"

FAULT_KINDS = (BUS_CORRUPT, BUS_DROP, SIGNAL_DROP, SIGNAL_DUP, PE_STALL, PE_CRASH)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _hash_site(site: str) -> int:
    """FNV-1a over the site label — deterministic across processes, unlike
    the builtin ``hash`` (PYTHONHASHSEED randomises string hashing)."""
    state = 0xCBF29CE484222325
    for byte in site.encode("utf-8"):
        state = ((state ^ byte) * 0x100000001B3) & _MASK64
    return state


class FaultRng:
    """Counter-based PRNG keyed off the kernel's integer-picosecond clock.

    Each draw hashes ``(seed, site, time_ps, counter)`` so decisions are
    independent of one another yet fully determined by the seed and the
    (deterministic) simulation event order.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._counter = 0

    def _draw(self, site: str, time_ps: int) -> int:
        self._counter += 1
        state = _mix64(self.seed ^ _GOLDEN)
        state = _mix64(state ^ _hash_site(site))
        state = _mix64(state ^ (time_ps & _MASK64))
        return _mix64(state ^ (self._counter * _GOLDEN))

    def uniform(self, site: str, time_ps: int) -> float:
        """A float in [0, 1)."""
        return self._draw(site, time_ps) / float(1 << 64)

    def randint(self, site: str, time_ps: int, bound: int) -> int:
        """An int in [0, bound)."""
        if bound <= 0:
            raise SimulationError("randint bound must be positive")
        return self._draw(site, time_ps) % bound

    def state_dict(self) -> dict:
        """The stream position: seed plus the number of draws taken."""
        return {"seed": self.seed, "draws": self._counter}

    def load_state_dict(self, state: dict) -> None:
        """Restore the stream position; the seed must match this RNG's."""
        if int(state["seed"]) != self.seed:
            raise SimulationError(
                f"cannot restore RNG seeded {self.seed} from a snapshot "
                f"seeded {state['seed']}"
            )
        self._counter = int(state["draws"])


@dataclass(frozen=True)
class PEWindow:
    """A stall or crash window on one processing element.

    * ``pe-stall`` — steps started inside the window take
      ``stall_factor`` (at least 2) times longer (the PE is throttled, e.g.
      by DMA contention or thermal limits).
    * ``pe-crash`` — activations arriving inside the window are lost (the
      PE is down; it recovers at ``end_ps``).
    """

    pe: str
    start_ps: int
    end_ps: int
    kind: str = PE_STALL
    stall_factor: int = 4

    def __post_init__(self) -> None:
        if self.kind not in (PE_STALL, PE_CRASH):
            raise SimulationError(f"unknown PE window kind {self.kind!r}")
        if self.end_ps <= self.start_ps:
            raise SimulationError("PE window must have positive length")
        # a factor of 1 would stretch nothing, yet count injections
        if self.kind == PE_STALL and self.stall_factor < 2:
            raise SimulationError("stall_factor must be >= 2")

    def covers(self, time_ps: int) -> bool:
        return self.start_ps <= time_ps < self.end_ps


@dataclass
class FaultStats:
    """One run's injection/recovery ledger, the report's reliability ledger.

    ``detected`` counts injections on CRC-protected signals (the receiver's
    FCS check is guaranteed to flag them, and lost protected frames are
    flagged by the sender's retransmission timeout).  ``recovered`` counts
    protected injections whose frame identity was later delivered clean —
    i.e. the model's retransmission actually repaired the loss.

    The ledger reaches profiling through the log's META entries:
    :meth:`as_meta` writes them and :meth:`from_meta` reads them back.
    """

    seed: int = 0
    injected_by_kind: Dict[str, int] = field(default_factory=dict)
    detected: int = 0
    recovered: int = 0

    @property
    def injected(self) -> int:
        return sum(self.injected_by_kind.values())

    @property
    def residual(self) -> int:
        return self.detected - self.recovered

    @property
    def recovery_ratio(self) -> float:
        """Fraction of detected faults repaired (1.0 when nothing detected)."""
        return self.recovered / self.detected if self.detected else 1.0

    def count(self, kind: str) -> int:
        return self.injected_by_kind.get(kind, 0)

    def note_injected(self, kind: str) -> None:
        self.injected_by_kind[kind] = self.injected_by_kind.get(kind, 0) + 1

    def as_meta(self) -> Dict[str, str]:
        """Log-file META entries carrying the ledger into profiling."""
        kinds = ",".join(
            f"{kind}:{count}"
            for kind, count in sorted(self.injected_by_kind.items())
        )
        return {
            "fault_seed": str(self.seed),
            "fault_injected": str(self.injected),
            "fault_detected": str(self.detected),
            "fault_recovered": str(self.recovered),
            "fault_residual": str(self.residual),
            "fault_kinds": kinds or "-",
        }

    @classmethod
    def from_meta(cls, meta: Mapping[str, str]) -> Optional["FaultStats"]:
        """The ledger :meth:`as_meta` wrote, or None for a fault-free log."""
        if "fault_injected" not in meta:
            return None
        by_kind: Dict[str, int] = {}
        kinds = meta.get("fault_kinds", "-")
        if kinds and kinds != "-":
            for entry in kinds.split(","):
                kind, _, count = entry.partition(":")
                by_kind[kind] = int(count or 0)
        return cls(
            seed=int(meta.get("fault_seed", "0")),
            injected_by_kind=by_kind,
            detected=int(meta.get("fault_detected", "0")),
            recovered=int(meta.get("fault_recovered", "0")),
        )


_RATES = ("bus_corrupt_rate", "bus_drop_rate", "signal_drop_rate", "signal_dup_rate")
#: the signal sets that restrict eligibility (``None`` means all signals)
_RESTRICTIONS = ("corruptible_signals", "droppable_signals")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of fault injections, as a frozen value.

    Rates are per-opportunity probabilities: ``bus_*`` rates apply to each
    eligible bus transfer, ``signal_*`` rates to each dispatched signal.
    ``corruptible_signals``/``droppable_signals`` restrict which signals
    are eligible (``None`` means all).  ``protected_signals`` are the ones
    the application guards with an FCS — injections on them count as
    *detected* and are identity-tracked so a later clean delivery of the
    same frame counts as *recovered*.

    Any iterable may be passed for the signal sets and the windows; they
    are kept as frozensets and a tuple, so equal plans hash equal.
    """

    seed: int = 0
    bus_corrupt_rate: float = 0.0
    bus_drop_rate: float = 0.0
    signal_drop_rate: float = 0.0
    signal_dup_rate: float = 0.0
    corruptible_signals: Optional[FrozenSet[str]] = None
    droppable_signals: Optional[FrozenSet[str]] = None
    protected_signals: FrozenSet[str] = frozenset()
    pe_windows: Tuple[PEWindow, ...] = ()

    def __post_init__(self) -> None:
        for name in _RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {rate}")
        normalised = {
            "seed": int(self.seed),
            "protected_signals": frozenset(self.protected_signals),
            "pe_windows": tuple(self.pe_windows),
        }
        for name in _RESTRICTIONS:
            signals = getattr(self, name)
            normalised[name] = frozenset(signals) if signals is not None else None
        for name, value in normalised.items():
            object.__setattr__(self, name, value)

    @property
    def enabled(self) -> bool:
        """False when the plan can never inject anything (zero-cost mode)."""
        return bool(self.pe_windows) or any(getattr(self, n) > 0.0 for n in _RATES)

    def to_json_dict(self) -> Dict[str, object]:
        """The canonical encoding an exploration spec's digest reads.

        ``pe_windows`` appears only when the plan has windows, so plans
        without them encode as they always have.
        """
        encoding: Dict[str, object] = {"seed": self.seed}
        encoding.update((name, getattr(self, name)) for name in _RATES)
        for name in _RESTRICTIONS:
            signals = getattr(self, name)
            encoding[name] = sorted(signals) if signals is not None else None
        encoding["protected_signals"] = sorted(self.protected_signals)
        if self.pe_windows:
            encoding["pe_windows"] = [asdict(window) for window in self.pe_windows]
        return encoding


def _eligible(signal: str, restriction: Optional[FrozenSet[str]]) -> bool:
    return restriction is None or signal in restriction


class FaultInjector:
    """One run's fault injection: the RNG position, the ledger and the
    pending losses, with every decision read off :attr:`plan`.

    :class:`~repro.simulation.system.SystemSimulation` builds one per run
    (when its plan is enabled), so a plan shared by several runs gives
    each the same decisions and a ledger of its own.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = FaultRng(plan.seed)
        self.stats = FaultStats(seed=plan.seed)
        # (signal, frame identity) -> number of losses awaiting clean
        # re-delivery.  A count, not a flag: a frame whose retransmission is
        # itself lost has two detected events, both repaired by the one
        # clean delivery that finally lands.
        self._pending: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    # checkpoint/restore protocol
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The run's fault state: RNG position, ledger, pending losses.

        The plan itself is not part of the snapshot — the caller builds
        the simulation with an identical plan and restores this state onto
        its injector, which :meth:`load_state_dict` checks via the RNG seed.
        """
        return {
            "rng": self.rng.state_dict(),
            "stats": {
                "injected_by_kind": dict(self.stats.injected_by_kind),
                "detected": self.stats.detected,
                "recovered": self.stats.recovered,
            },
            "pending": [
                [signal, identity, count]
                for (signal, identity), count in sorted(self._pending.items())
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the run's fault state so fault streams resume mid-sequence."""
        self.rng.load_state_dict(state["rng"])
        stats = state["stats"]
        self.stats.injected_by_kind = dict(stats["injected_by_kind"])
        self.stats.detected = int(stats["detected"])
        self.stats.recovered = int(stats["recovered"])
        self._pending = {
            (signal, identity): count
            for signal, identity, count in state["pending"]
        }

    # ------------------------------------------------------------------
    # bus transfer faults
    # ------------------------------------------------------------------

    def apply_bus_fault(
        self,
        signal: str,
        args: Tuple[int, ...],
        source_pe: str,
        target_pe: str,
        time_ps: int,
    ) -> Tuple[Optional[str], Tuple[int, ...]]:
        """Decide the fate of one bus transfer.

        Returns ``(kind, args)``: ``(None, args)`` for a clean transfer,
        ``(BUS_DROP, args)`` for a lost frame, or ``(BUS_CORRUPT,
        corrupted_args)`` with one bit of the frame identity flipped.
        """
        plan = self.plan
        site = f"bus:{source_pe}->{target_pe}:{signal}"
        if plan.bus_drop_rate > 0.0 and _eligible(signal, plan.droppable_signals):
            if self.rng.uniform(site + ":drop", time_ps) < plan.bus_drop_rate:
                self._record_loss(BUS_DROP, signal, args)
                return BUS_DROP, args
        if plan.bus_corrupt_rate > 0.0 and _eligible(signal, plan.corruptible_signals):
            if self.rng.uniform(site + ":corrupt", time_ps) < plan.bus_corrupt_rate:
                self._record_loss(BUS_CORRUPT, signal, args)
                return BUS_CORRUPT, self._corrupt(signal, args, time_ps)
        return None, args

    def _corrupt(
        self, signal: str, args: Tuple[int, ...], time_ps: int
    ) -> Tuple[int, ...]:
        """Flip one bit of the frame identity (the first argument)."""
        if not args:
            return args
        bit = self.rng.randint(f"corrupt-bit:{signal}", time_ps, 16)
        return (args[0] ^ (1 << bit),) + tuple(args[1:])

    # ------------------------------------------------------------------
    # dispatch faults
    # ------------------------------------------------------------------

    def apply_dispatch_fault(
        self,
        signal: str,
        args: Tuple[int, ...],
        sender: str,
        receiver: str,
        time_ps: int,
    ) -> Optional[str]:
        """Decide the fate of one signal dispatch: drop, duplicate or None."""
        plan = self.plan
        site = f"sig:{sender}->{receiver}:{signal}"
        if plan.signal_drop_rate > 0.0 and _eligible(signal, plan.droppable_signals):
            if self.rng.uniform(site + ":drop", time_ps) < plan.signal_drop_rate:
                self._record_loss(SIGNAL_DROP, signal, args)
                return SIGNAL_DROP
        if plan.signal_dup_rate > 0.0:
            if self.rng.uniform(site + ":dup", time_ps) < plan.signal_dup_rate:
                self.stats.note_injected(SIGNAL_DUP)
                return SIGNAL_DUP
        return None

    # ------------------------------------------------------------------
    # PE windows
    # ------------------------------------------------------------------

    def pe_crashed(self, pe: str, time_ps: int) -> bool:
        """Whether ``pe`` is inside a crash window (an activation is lost)."""
        for window in self.plan.pe_windows:
            if window.kind == PE_CRASH and window.pe == pe and window.covers(time_ps):
                self.stats.note_injected(PE_CRASH)
                return True
        return False

    def stall_duration_ps(self, pe: str, time_ps: int, duration_ps: int) -> int:
        """Stretch a step's duration when the PE is inside a stall window."""
        for window in self.plan.pe_windows:
            if window.kind == PE_STALL and window.pe == pe and window.covers(time_ps):
                self.stats.note_injected(PE_STALL)
                return duration_ps * window.stall_factor
        return duration_ps

    # ------------------------------------------------------------------
    # detection / recovery accounting
    # ------------------------------------------------------------------

    def _record_loss(self, kind: str, signal: str, args: Tuple[int, ...]) -> None:
        self.stats.note_injected(kind)
        if signal in self.plan.protected_signals and args:
            self.stats.detected += 1
            key = (signal, args[0])
            self._pending[key] = self._pending.get(key, 0) + 1

    def note_delivery(self, signal: str, args: Tuple[int, ...]) -> None:
        """A clean delivery: if it re-delivers a lost frame, that's recovery."""
        if not self._pending or not args:
            return
        count = self._pending.pop((signal, args[0]), 0)
        self.stats.recovered += count

    @property
    def pending_losses(self) -> int:
        """Protected injections not yet repaired by a clean re-delivery."""
        return sum(self._pending.values())
