"""Platform- and mapping-view blueprint generation.

Lays out HIBI topologies beyond the paper's two bridged segments:

* ``single`` — one segment, no bridge;
* ``paper``  — two segments joined by one bridge (Figure 7's shape);
* ``chain``  — ``n_segments`` segments, a bridge between each pair of
  neighbours (a pipeline of bus domains);
* ``star``   — every segment attached to one central bridge;
* ``mesh``   — a bridge for every segment pair (full interconnect).

Processing elements alternate NiosCPU/NiosDSP when the configuration is
heterogeneous and are attached round-robin, so every topology keeps a
valid transfer path between any two PEs.  The mapping view assigns each
generated group to a uniformly drawn *compatible* PE.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List

from repro.genmodel.config import GeneratorConfig
from repro.mapping.model import runs_on
from repro.platform.library import standard_library
from repro.tutprofile.tags import ProcessType

PLATFORM_NAME = "GenPlatform"

#: Address stride between attached agents (wrapper bus addresses).
ADDRESS_STRIDE = 0x100


def _segment_count(config: GeneratorConfig) -> int:
    if config.topology == "single":
        return 1
    if config.topology == "paper":
        return 2
    return config.n_segments


def platform_blueprint(
    config: GeneratorConfig, rng: Random
) -> Dict[str, object]:
    """Draw the platform view: PEs, segments, bridges, attachments."""
    segment_total = _segment_count(config)
    segments = [
        {"name": f"seg{index}", "type": "HIBISegment"}
        for index in range(segment_total)
    ]
    attachments: List[Dict[str, object]] = []
    next_address = ADDRESS_STRIDE

    def attach(agent: str, segment: str) -> None:
        nonlocal next_address
        attachments.append(
            {"agent": agent, "segment": segment, "address": next_address}
        )
        next_address += ADDRESS_STRIDE

    pes: List[Dict[str, object]] = []
    types = (
        ("NiosCPU", "NiosDSP") if config.heterogeneous else ("NiosCPU",)
    )
    for index in range(config.n_pes):
        pes.append(
            {
                "name": f"pe{index}",
                "type": types[index % len(types)],
                "priority": index,
            }
        )
        attach(f"pe{index}", f"seg{index % segment_total}")

    bridges: List[Dict[str, object]] = []

    def bridge(name: str, joined: List[str]) -> None:
        bridges.append({"name": name, "type": "HIBIBridgeSegment"})
        for segment_name in joined:
            attach(segment_name, name)

    if config.topology == "paper":
        bridge("br0", ["seg0", "seg1"])
    elif config.topology == "chain":
        for index in range(segment_total - 1):
            bridge(f"br{index}", [f"seg{index}", f"seg{index + 1}"])
    elif config.topology == "star":
        bridge("br0", [f"seg{index}" for index in range(segment_total)])
    elif config.topology == "mesh":
        for left in range(segment_total):
            for right in range(left + 1, segment_total):
                bridge(f"br{left}_{right}", [f"seg{left}", f"seg{right}"])
    return {
        "name": PLATFORM_NAME,
        "pes": pes,
        "segments": segments + bridges,
        "attachments": attachments,
    }


def general_capable(pes: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """The blueprint PEs the mapping relation lets run a general group (the
    generator emits general groups only), judged on the standard library."""
    library = standard_library()
    return [
        pe
        for pe in pes
        if runs_on(ProcessType.GENERAL, library.processing_element(pe["type"]))
    ]


def mapping_blueprint(
    config: GeneratorConfig,
    rng: Random,
    application: Dict[str, object],
    platform: Dict[str, object],
) -> Dict[str, object]:
    """Draw a random-but-valid «PlatformMapping» assignment."""
    compatible = [pe["name"] for pe in general_capable(platform["pes"])]
    assignments = [
        [group["name"], rng.choice(compatible)]
        for group in application["groups"]
    ]
    return {"assignments": assignments, "duplicates": []}
