"""Performance specifications of platform library components.

The paper parameterises "properties, capabilities, and limitations" of
platform components (Section 3.2) and uses them to guide high-level HW/SW
co-simulation.  These dataclasses are those parameter sets; the UML view
(stereotyped classes and tagged values) is generated from them by
:mod:`repro.platform.library`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ModelError
from repro.tutprofile.tags import Arbitration, ComponentType, ProcessType


@dataclass(frozen=True)
class ProcessingElementSpec:
    """A processing element (soft-core CPU, DSP, or hardware accelerator).

    ``cycles_per_statement`` maps a process type to the average number of PE
    clock cycles one action-language statement costs when a process of that
    type runs on this PE.  A missing entry means the PE cannot run that
    type: the mapping relation (:mod:`repro.mapping.model`) rejects it.
    """

    name: str
    component_type: str = ComponentType.GENERAL
    frequency_hz: int = 50_000_000
    cycles_per_statement: Dict[str, int] = field(
        default_factory=lambda: {
            ProcessType.GENERAL: 10,
            ProcessType.DSP: 14,
            ProcessType.HARDWARE: 40,
        }
    )
    context_switch_cycles: int = 120
    signal_dispatch_cycles: int = 30
    area_mm2: float = 1.0
    power_mw: float = 50.0
    internal_memory_bytes: int = 65536

    def __post_init__(self) -> None:
        # defensively copy the dict: callers routinely build several specs
        # from one cycle table, and a shared reference would let a later
        # mutation retroactively change every spec's cost model
        object.__setattr__(
            self, "cycles_per_statement", dict(self.cycles_per_statement)
        )
        if self.component_type not in ComponentType.ALL:
            raise ModelError(f"unknown component type {self.component_type!r}")
        if self.frequency_hz <= 0:
            raise ModelError("frequency_hz must be positive")
        for process_type, cycles in self.cycles_per_statement.items():
            if process_type not in ProcessType.ALL:
                raise ModelError(f"unknown process type {process_type!r}")
            if cycles <= 0:
                raise ModelError("cycles_per_statement values must be positive")

    def supports(self, process_type: str) -> bool:
        return process_type in self.cycles_per_statement

    def statement_cycles(self, process_type: str) -> int:
        try:
            return self.cycles_per_statement[process_type]
        except KeyError:
            raise ModelError(
                f"PE {self.name!r} cannot execute {process_type!r} processes"
            ) from None


@dataclass(frozen=True)
class SegmentSpec:
    """A communication segment (a HIBI bus segment, possibly a bridge)."""

    name: str
    data_width_bits: int = 32
    frequency_hz: int = 50_000_000
    arbitration: str = Arbitration.PRIORITY
    is_bridge: bool = False
    burst_words: int = 8
    arbitration_cycles: int = 2  # cycles to win an idle bus

    def __post_init__(self) -> None:
        if self.arbitration not in Arbitration.ALL:
            raise ModelError(f"unknown arbitration scheme {self.arbitration!r}")
        if self.data_width_bits <= 0 or self.data_width_bits % 8:
            raise ModelError("data_width_bits must be a positive multiple of 8")
        if self.frequency_hz <= 0:
            raise ModelError("frequency_hz must be positive")
        if self.burst_words <= 0:
            raise ModelError("burst_words must be positive")

    def words_for_bytes(self, size_bytes: int) -> int:
        word_bytes = self.data_width_bits // 8
        return max(1, (size_bytes + word_bytes - 1) // word_bytes)

    def transfer_cycles(self, size_bytes: int) -> int:
        """Bus-clock cycles to move ``size_bytes`` once access is granted.

        One word per cycle, plus one overhead cycle per burst (HIBI sends
        an address word when a burst opens).
        """
        words = self.words_for_bytes(size_bytes)
        bursts = (words + self.burst_words - 1) // self.burst_words
        return words + bursts


@dataclass(frozen=True)
class WrapperSpec:
    """A communication wrapper attaching an agent to a segment."""

    address: int
    tx_buffer_words: int = 8
    rx_buffer_words: int = 8
    priority_class: int = 0
    max_reservation_cycles: int = 0  # 0 = unlimited (MaxTime tag)

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ModelError("wrapper address must be non-negative")
        if self.tx_buffer_words <= 0 or self.rx_buffer_words <= 0:
            raise ModelError("wrapper buffer sizes must be positive")
