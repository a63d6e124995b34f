"""The profiling tool (paper Section 4.4).

Three stages, as in the paper:

1. :func:`group_info_from_xmi` — parse the model's XML for group info;
2. instrumentation — inserted by :mod:`repro.codegen` (C) and produced
   natively by :mod:`repro.simulation` (the log-file);
3. :func:`analyze` + :func:`render_report` — join log and group info into
   the profiling report (Table 4).

:func:`profile_run` is the one-call convenience covering stages 1 and 3.
"""

from repro.profiling.groupinfo import (
    ENVIRONMENT_GROUP,
    ProcessGroupInfo,
    group_info_from_model,
    group_info_from_xmi,
)
from repro.profiling.analysis import ProfilingData, analyze
from repro.profiling.export import (
    group_times_csv,
    latency_csv,
    process_transfers_csv,
    signal_matrix_csv,
    write_all_csv,
)
from repro.profiling.report import (
    execution_time_rows,
    render_fault_section,
    render_latency_detail,
    render_process_detail,
    render_report,
    render_table4a,
    render_table4b,
    signal_matrix_rows,
)


def profile_run(result, application):
    """Profile a simulation result against its application model.

    ``result`` is a :class:`~repro.simulation.SimulationResult`;
    ``application`` an :class:`~repro.application.ApplicationModel`.
    Stage 1 runs over the application's *serialised* model (through XMI),
    exactly as the paper's tool does.
    """
    from repro.uml.xmi import model_to_xml

    xml = model_to_xml(application.model)
    info = group_info_from_xmi(xml, profiles=[application.profile])
    return analyze(result.log, info)


__all__ = [
    "ENVIRONMENT_GROUP",
    "render_fault_section",
    "render_latency_detail",
    "group_times_csv",
    "latency_csv",
    "process_transfers_csv",
    "signal_matrix_csv",
    "write_all_csv",
    "ProcessGroupInfo",
    "ProfilingData",
    "analyze",
    "execution_time_rows",
    "group_info_from_model",
    "group_info_from_xmi",
    "profile_run",
    "render_process_detail",
    "render_report",
    "render_table4a",
    "render_table4b",
    "signal_matrix_rows",
]
