"""Cost model: what a run-to-completion step costs on a processing element.

The paper's parameterised platform models "are used to perform a high-level
hardware/software co-simulation.  In that case, the execution of application
processes is guided with the properties of the platform components"
(Section 3.2).  This module holds that guidance's constants.  The system
simulator prices each step from them and the PE spec's per-process-type
costs: ``(TRANSITION_BASE_STATEMENTS + statements + GUARD_STATEMENTS *
guards) * cycles per statement + sends * signal dispatch cycles``, plus the
context switch cycles when the PE last ran another process.

Timer durations in the action language are in **microseconds** (protocol
time), independent of any PE clock.
"""

from __future__ import annotations

from repro.platform.components import ProcessingElementSpec
from repro.simulation.kernel import PS_PER_US
from repro.tutprofile.tags import ComponentType, ProcessType

#: Fixed cycles charged per transition dispatch (state bookkeeping).
TRANSITION_BASE_STATEMENTS = 2
#: Statement-equivalents charged per evaluated (possibly failing) guard.
GUARD_STATEMENTS = 1

#: The PE spec used for reference ("workstation") simulation runs: a fast
#: general-purpose processor, the paper's "simulations on the workstation
#: processor" setting for Table 4.  Context switching is free because the
#: paper's profiling instruments application functions only — scheduler
#: overhead of the host OS is not attributed to any process group.
WORKSTATION_SPEC = ProcessingElementSpec(
    name="Workstation",
    component_type=ComponentType.GENERAL,
    frequency_hz=2_000_000_000,
    cycles_per_statement={
        ProcessType.GENERAL: 8,
        ProcessType.DSP: 8,
        ProcessType.HARDWARE: 8,
    },
    context_switch_cycles=0,
    signal_dispatch_cycles=8,
    area_mm2=0.0,
    power_mw=0.0,
    internal_memory_bytes=1 << 30,
)


def timer_duration_ps(microseconds: int) -> int:
    """Convert an action-language timer duration to kernel time."""
    return microseconds * PS_PER_US
