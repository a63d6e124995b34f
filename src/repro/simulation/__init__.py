"""Discrete-event simulation of TUT-Profile systems.

The simulator plays the role of the paper's verification/simulation stage
(Figure 2): it executes application EFSMs on the mapped platform (or on a
workstation reference PE) and produces the simulation log-file consumed by
the profiling tool.
"""

from repro.simulation.kernel import (
    EV_ARGS,
    EV_CALLBACK,
    EV_CANCELLED,
    EV_DISPATCHED,
    EV_SEQ,
    EV_TIME,
    Kernel,
    PS_PER_MS,
    PS_PER_US,
    QUEUE_DEPTH_COUNTER,
    cycles_to_ps,
    event_pending,
)
from repro.simulation.logfile import (
    DropRecord,
    ExecRecord,
    FaultRecord,
    LogFile,
    LogWriter,
    SignalRecord,
    TRANSPORT_BUS,
    TRANSPORT_ENV,
    TRANSPORT_LOCAL,
    parse_log,
    read_log,
)
from repro.simulation.timing import WORKSTATION_SPEC, timer_duration_ps
from repro.simulation.executor import ProcessExecutor, SendIntent, StepOutcome
from repro.simulation.bus import HibiBus, TransferStats
from repro.simulation.system import SimulationResult, SystemSimulation
from repro.simulation.reference import (
    REFERENCE_PE,
    build_reference_mapping,
    build_reference_platform,
    run_reference_simulation,
)

__all__ = [
    "DropRecord",
    "EV_ARGS",
    "EV_CALLBACK",
    "EV_CANCELLED",
    "EV_DISPATCHED",
    "EV_SEQ",
    "EV_TIME",
    "ExecRecord",
    "FaultRecord",
    "HibiBus",
    "Kernel",
    "LogFile",
    "LogWriter",
    "PS_PER_MS",
    "PS_PER_US",
    "ProcessExecutor",
    "QUEUE_DEPTH_COUNTER",
    "REFERENCE_PE",
    "SendIntent",
    "SignalRecord",
    "SimulationResult",
    "StepOutcome",
    "SystemSimulation",
    "TRANSPORT_BUS",
    "TRANSPORT_ENV",
    "TRANSPORT_LOCAL",
    "TransferStats",
    "WORKSTATION_SPEC",
    "build_reference_mapping",
    "build_reference_platform",
    "cycles_to_ps",
    "event_pending",
    "parse_log",
    "read_log",
    "run_reference_simulation",
    "timer_duration_ps",
]
