"""Deterministic fault injection: seeded fault plans and canned campaigns.

See :mod:`repro.faults.plan` for the fault models (a frozen
:class:`FaultPlan`, injected by each run's :class:`FaultInjector`) and
:mod:`repro.faults.campaign` for the TUTMAC robustness campaign.
Documentation: ``docs/fault_injection.md``.
"""

from repro.faults.plan import (
    BUS_CORRUPT,
    BUS_DROP,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRng,
    FaultStats,
    PE_CRASH,
    PE_STALL,
    PEWindow,
    SIGNAL_DROP,
    SIGNAL_DUP,
)
from repro.faults.campaign import (
    CampaignResult,
    build_campaign_plan,
    fault_sweep_specs,
    run_fault_campaign,
    run_fault_sweep,
)

__all__ = [
    "BUS_CORRUPT",
    "BUS_DROP",
    "CampaignResult",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRng",
    "FaultStats",
    "PEWindow",
    "PE_CRASH",
    "PE_STALL",
    "SIGNAL_DROP",
    "SIGNAL_DUP",
    "build_campaign_plan",
    "fault_sweep_specs",
    "run_fault_campaign",
    "run_fault_sweep",
]
