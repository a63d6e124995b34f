"""Seeded defect injection: one constructive trigger per lint rule.

Each injector splices a small, self-contained defect construction into an
otherwise-clean blueprint — an extra component/process/group, a mapping
override, or a duplicate «PlatformMapping» — built so its target rule
*must* fire.  The lint-coverage suite drives every rule in the E/D/S/A/M
catalogues through these, proving no rule is dead code against
non-TUTMAC input.

Injected machines are deliberately minimal: a timer-driven ``idle``
self-loop (so the machine itself stays clean) plus the rule's trigger
construction.  Injectors may produce *additional* findings beyond their
target (e.g. an arity-mismatched send also fails signal-flow checks);
coverage tests assert the target rule is present, not that it is alone.

The ``A001``/``A003`` constructions are *sound* defects: the flagged
guard is infeasible by construction, so a concrete simulation can never
take it — which is exactly what the fuzz soundness invariant checks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import GeneratorError
from repro.genmodel.platgen import general_capable

Blueprint = Dict[str, object]


def _timer(timer: str) -> Dict[str, object]:
    return {"kind": "timer", "timer": timer}


def _signal(name: str, params: Sequence[str]) -> Dict[str, object]:
    return {"kind": "signal", "signal": name, "params": list(params)}


def _transition(
    source: str,
    target: str,
    trigger: Dict[str, object],
    guard: str = "",
    effect: str = "",
    priority: int = 0,
    internal: bool = False,
) -> Dict[str, object]:
    return {
        "source": source,
        "target": target,
        "trigger": trigger,
        "guard": guard,
        "effect": effect,
        "priority": priority,
        "internal": internal,
    }


def _machine(
    entry_extra: str = "",
    variables: Sequence[Tuple[str, int]] = (),
    states: Sequence[Dict[str, object]] = (),
    transitions: Sequence[Dict[str, object]] = (),
    driver_priority: int = 0,
) -> Dict[str, object]:
    """A clean timer-driven base machine plus the defect construction."""
    entry = "set_timer(t, 100);"
    if entry_extra:
        entry = f"{entry} {entry_extra}"
    return {
        "variables": [["k", 0]] + [list(item) for item in variables],
        "states": [
            {"name": "idle", "initial": True, "parent": None, "entry": entry}
        ]
        + list(states),
        "transitions": [
            _transition(
                "idle",
                "idle",
                _timer("t"),
                effect="k = (k + 1) % 5;",
                priority=driver_priority,
            )
        ]
        + list(transitions),
    }


def _add_component(
    blueprint: Blueprint,
    name: str,
    machine: Dict[str, object],
    ports: Sequence[Dict[str, object]] = (),
    grouped: bool = True,
    pe: str = "",
) -> str:
    """Register a defect component/process (and its group + mapping)."""
    application = blueprint["application"]
    application["components"].append(
        {"name": name, "ports": list(ports), "machine": machine}
    )
    process_name = f"p_{name}"
    application["processes"].append(
        {"name": process_name, "component": name, "priority": 0}
    )
    if grouped:
        group_name = f"g_{name}"
        application["groups"].append(
            {
                "name": group_name,
                "process_type": "general",
                "members": [process_name],
                "comments": [],
            }
        )
        target = pe or blueprint["platform"]["pes"][0]["name"]
        blueprint["mapping"]["assignments"].append([group_name, target])
    return process_name


def _declare(blueprint: Blueprint, name: str, params: int, bits: int = 0):
    blueprint["application"]["signals"].append(
        {
            "name": name,
            "params": [[f"a{i}", "Int32"] for i in range(params)],
            "payload_bits": bits,
        }
    )


def _split_pes(blueprint: Blueprint, rule: str) -> Tuple[str, str]:
    """Two general-capable PEs on different (bridged) segments."""
    segment_of = {
        attachment["agent"]: attachment["segment"]
        for attachment in blueprint["platform"]["attachments"]
    }
    by_segment: Dict[str, str] = {}
    for pe in general_capable(blueprint["platform"]["pes"]):
        by_segment.setdefault(segment_of[pe["name"]], pe["name"])
    if len(by_segment) < 2:
        raise GeneratorError(
            f"defect {rule} needs processing elements on two bridged "
            "segments; use a multi-segment topology with n_pes >= 2"
        )
    names = sorted(by_segment)
    return by_segment[names[0]], by_segment[names[1]]


# ----------------------------------------------------------------------
# EFSM structure (E001-E006)
# ----------------------------------------------------------------------


def _inject_e001(blueprint: Blueprint) -> None:
    machine = _machine(
        states=[
            {"name": "orphan", "initial": False, "parent": None, "entry": ""}
        ]
    )
    _add_component(blueprint, "DefE001", machine)


def _inject_e002(blueprint: Blueprint) -> None:
    machine = _machine(
        driver_priority=1,
        transitions=[
            _transition("idle", "idle", _timer("t"), guard="1 == 0")
        ],
    )
    _add_component(blueprint, "DefE002", machine)


def _inject_e003(blueprint: Blueprint) -> None:
    # the base driver is unguarded at priority 0; a later transition on
    # the same timer can never be reached
    machine = _machine(
        transitions=[
            _transition(
                "idle", "idle", _timer("t"), effect="k = 0;", priority=1
            )
        ]
    )
    _add_component(blueprint, "DefE003", machine)


def _inject_e004(blueprint: Blueprint) -> None:
    machine = _machine(
        entry_extra="set_timer(t2, 500);",
        states=[
            {"name": "trap", "initial": False, "parent": None, "entry": ""}
        ],
        transitions=[_transition("idle", "trap", _timer("t2"))],
    )
    _add_component(blueprint, "DefE004", machine)


def _inject_e005(blueprint: Blueprint) -> None:
    machine = _machine(entry_extra="set_timer(t_orphan, 50);")
    _add_component(blueprint, "DefE005", machine)


def _inject_e006(blueprint: Blueprint) -> None:
    machine = _machine(
        transitions=[
            _transition("idle", "idle", _timer("t_never"), effect="k = 1;")
        ]
    )
    _add_component(blueprint, "DefE006", machine)


# ----------------------------------------------------------------------
# action-language dataflow (D001-D007)
# ----------------------------------------------------------------------


def _inject_d001(blueprint: Blueprint) -> None:
    machine = _machine(
        entry_extra="set_timer(t2, 300);",
        transitions=[
            _transition(
                "idle",
                "idle",
                _timer("t2"),
                effect="k = (undeclared_name + 1) % 5;",
            )
        ],
    )
    _add_component(blueprint, "DefD001", machine)


def _inject_d002(blueprint: Blueprint) -> None:
    machine = _machine(
        entry_extra="set_timer(t2, 300);",
        transitions=[
            _transition(
                "idle",
                "idle",
                _timer("t2"),
                guard="k == 0",
                effect="tmp = 1; k = (k + tmp) % 5;",
            ),
            _transition(
                "idle",
                "idle",
                _timer("t2"),
                effect="k = (k + tmp) % 5;",
                priority=1,
            ),
        ],
    )
    _add_component(blueprint, "DefD002", machine)


def _inject_d003(blueprint: Blueprint) -> None:
    machine = _machine(variables=[("dead_store", 3)])
    _add_component(blueprint, "DefD003", machine)


def _inject_d004(blueprint: Blueprint) -> None:
    _declare(blueprint, "d4sig", params=1)
    sender = _machine(
        entry_extra="set_timer(t2, 300);",
        transitions=[
            _transition(
                "idle",
                "idle",
                _timer("t2"),
                effect="send d4sig(1, 2) via out4;",
            )
        ],
    )
    receiver = _machine(
        transitions=[
            _transition(
                "idle",
                "idle",
                _signal("d4sig", ["a0"]),
                effect="k = (k + a0) % 5;",
                internal=True,
                priority=1,
            )
        ]
    )
    sender_process = _add_component(
        blueprint,
        "DefD004",
        sender,
        ports=[{"name": "out4", "provided": [], "required": ["d4sig"]}],
    )
    receiver_process = _add_component(
        blueprint,
        "DefD004Rx",
        receiver,
        ports=[{"name": "in4", "provided": ["d4sig"], "required": []}],
    )
    blueprint["application"]["connectors"].append(
        [[sender_process, "out4"], [receiver_process, "in4"]]
    )


def _inject_d005(blueprint: Blueprint) -> None:
    machine = _machine(
        entry_extra="set_timer(t2, 300);",
        transitions=[
            _transition(
                "idle",
                "idle",
                _timer("t2"),
                effect="send ghost_signal(1) via out5;",
            )
        ],
    )
    _add_component(
        blueprint,
        "DefD005",
        machine,
        ports=[{"name": "out5", "provided": [], "required": []}],
    )


def _inject_d006(blueprint: Blueprint) -> None:
    machine = _machine(
        entry_extra="set_timer(t2, 300);",
        transitions=[
            _transition(
                "idle", "idle", _timer("t2"), effect="k = (k + 10 / 0) % 5;"
            )
        ],
    )
    _add_component(blueprint, "DefD006", machine)


def _inject_d007(blueprint: Blueprint) -> None:
    _declare(blueprint, "d7sig", params=1)
    machine = _machine(
        transitions=[
            _transition(
                "idle",
                "idle",
                _signal("d7sig", ["a0", "extra"]),
                effect="k = (k + a0 + extra) % 5;",
                internal=True,
                priority=1,
            )
        ]
    )
    _add_component(
        blueprint,
        "DefD007",
        machine,
        ports=[{"name": "in7", "provided": ["d7sig"], "required": []}],
    )


# ----------------------------------------------------------------------
# cross-process signal flow (S001-S004)
# ----------------------------------------------------------------------


def _inject_s001(blueprint: Blueprint) -> None:
    _declare(blueprint, "s1sig", params=1)
    sender = _machine(
        entry_extra="set_timer(t2, 300);",
        transitions=[
            _transition(
                "idle", "idle", _timer("t2"), effect="send s1sig(k) via out1;"
            )
        ],
    )
    # the receiver's port provides s1sig but its machine never reacts
    receiver = _machine()
    sender_process = _add_component(
        blueprint,
        "DefS001",
        sender,
        ports=[{"name": "out1", "provided": [], "required": ["s1sig"]}],
    )
    receiver_process = _add_component(
        blueprint,
        "DefS001Rx",
        receiver,
        ports=[{"name": "in1", "provided": ["s1sig"], "required": []}],
    )
    blueprint["application"]["connectors"].append(
        [[sender_process, "out1"], [receiver_process, "in1"]]
    )


def _inject_s002(blueprint: Blueprint) -> None:
    _declare(blueprint, "s2sig", params=1)
    machine = _machine(
        entry_extra="set_timer(t2, 300);",
        transitions=[
            _transition(
                "idle", "idle", _timer("t2"), effect="send s2sig(k) via out2;"
            )
        ],
    )
    _add_component(
        blueprint,
        "DefS002",
        machine,
        ports=[{"name": "out2", "provided": [], "required": ["s2sig"]}],
    )


def _inject_s003(blueprint: Blueprint) -> None:
    _declare(blueprint, "s3sig", params=1)
    machine = _machine(
        transitions=[
            _transition(
                "idle",
                "idle",
                _signal("s3sig", ["a0"]),
                effect="k = (k + a0) % 5;",
                internal=True,
                priority=1,
            )
        ]
    )
    _add_component(
        blueprint,
        "DefS003",
        machine,
        ports=[{"name": "in3", "provided": ["s3sig"], "required": []}],
    )


def _request_reply_pair(
    blueprint: Blueprint,
    rule: str,
    request: str,
    reply: str,
    payload_bits: int,
) -> None:
    """An unsuppressed request-reply pair split across two segments."""
    client_pe, server_pe = _split_pes(blueprint, rule)
    _declare(blueprint, request, params=1, bits=payload_bits)
    _declare(blueprint, reply, params=1, bits=payload_bits)
    client = _machine(
        entry_extra="set_timer(t2, 300);",
        states=[
            {"name": "wait", "initial": False, "parent": None, "entry": ""}
        ],
        transitions=[
            _transition(
                "idle",
                "wait",
                _timer("t2"),
                effect=f"send {request}(k) via creq;",
            ),
            _transition(
                "wait",
                "idle",
                _signal(reply, ["a0"]),
                effect="k = (k + a0) % 5;",
            ),
        ],
    )
    server = _machine(
        transitions=[
            _transition(
                "idle",
                "idle",
                _signal(request, ["a0"]),
                effect=f"send {reply}(a0) via srep;",
                internal=True,
                priority=1,
            )
        ]
    )
    client_process = _add_component(
        blueprint,
        f"Def{rule}Client",
        client,
        ports=[
            {"name": "creq", "provided": [reply], "required": [request]}
        ],
        pe=client_pe,
    )
    server_process = _add_component(
        blueprint,
        f"Def{rule}Server",
        server,
        ports=[
            {"name": "srep", "provided": [request], "required": [reply]}
        ],
        pe=server_pe,
    )
    blueprint["application"]["connectors"].append(
        [[client_process, "creq"], [server_process, "srep"]]
    )


def _inject_s004(blueprint: Blueprint) -> None:
    _request_reply_pair(blueprint, "S004", "s4req", "s4rep", payload_bits=0)


# ----------------------------------------------------------------------
# interval value analysis (A001-A004)
# ----------------------------------------------------------------------


def _dead_guard_machine() -> Dict[str, object]:
    """``a1`` provably stays at 0; the ``a1 > 10`` guard is dead.

    The guarded transition triggers A001 and its unreachable target's
    outgoing transition triggers A003 — and because the guard really is
    infeasible, a concrete simulation never takes either (the soundness
    invariant the fuzz harness replays).  ``a1`` is only ever re-assigned
    its initial value: the interval fixpoint's immediate widening blows
    any *changing* bound to infinity, so a stable constant is the only
    shape the analysis can still prove finite across a loop.
    """
    return _machine(
        entry_extra="set_timer(t2, 300);",
        variables=[("a1", 0)],
        states=[
            {"name": "a1dead", "initial": False, "parent": None, "entry": ""}
        ],
        transitions=[
            _transition(
                "idle",
                "a1dead",
                _timer("t2"),
                guard="a1 > 10",
                priority=0,
            ),
            _transition(
                "idle",
                "idle",
                _timer("t2"),
                effect="a1 = 0;",
                priority=1,
            ),
            _transition("a1dead", "idle", _timer("t2"), effect="a1 = 0;"),
        ],
    )


def _inject_a001(blueprint: Blueprint) -> None:
    _add_component(blueprint, "DefA001", _dead_guard_machine())


def _inject_a002(blueprint: Blueprint) -> None:
    machine = _machine(
        entry_extra="set_timer(t2, 300);",
        variables=[("big", 0)],
        transitions=[
            _transition(
                "idle",
                "idle",
                _timer("t2"),
                effect="big = 3000000000; k = (k + big % 5) % 5;",
            )
        ],
    )
    _add_component(blueprint, "DefA002", machine)


def _inject_a003(blueprint: Blueprint) -> None:
    _add_component(blueprint, "DefA003", _dead_guard_machine())


def _inject_a004(blueprint: Blueprint) -> None:
    # dv joins {0, 2}: the divisor interval contains zero without being
    # the constant zero (which would be D006's finding instead)
    machine = _machine(
        entry_extra="set_timer(t2, 300);",
        variables=[("dv", 0)],
        transitions=[
            _transition(
                "idle",
                "idle",
                _timer("t2"),
                guard="k % 2 == 0",
                effect="dv = 2;",
                priority=0,
            ),
            _transition(
                "idle",
                "idle",
                _timer("t2"),
                effect="k = (k + 8 / dv) % 5;",
                priority=1,
            ),
        ],
    )
    _add_component(blueprint, "DefA004", machine)


# ----------------------------------------------------------------------
# platform/mapping (M001-M005)
# ----------------------------------------------------------------------


def _inject_m001(blueprint: Blueprint) -> None:
    _add_component(blueprint, "DefM001", _machine(), grouped=False)


def _inject_m002(blueprint: Blueprint) -> None:
    pes = blueprint["platform"]["pes"]
    capable = general_capable(pes)
    if len(capable) < 2:
        raise GeneratorError(
            "defect M002 needs a movable group and an idle compatible "
            "peer: use n_pes >= 2"
        )
    target = capable[0]["name"]
    blueprint["mapping"]["assignments"] = [
        [group_name, target]
        for group_name, _ in blueprint["mapping"]["assignments"]
    ]


def _inject_m003(blueprint: Blueprint) -> None:
    # a chatty pair dominating cross-group bytes across disjoint segments
    _request_reply_pair(
        blueprint, "M003", "m3req", "m3rep", payload_bits=1 << 17
    )


def _inject_m004(blueprint: Blueprint) -> None:
    # the same heavy pair saturates the bridge between its segments
    _request_reply_pair(
        blueprint, "M004", "m4req", "m4rep", payload_bits=1 << 17
    )


def _inject_m005(blueprint: Blueprint) -> None:
    group_name, pe_name = blueprint["mapping"]["assignments"][0]
    blueprint["mapping"]["duplicates"].append([group_name, pe_name])


#: rule id → blueprint transformer; keys double as the CLI's --defects
#: vocabulary and the coverage suite's completeness base.
INJECTORS: Dict[str, Callable[[Blueprint], None]] = {
    "E001": _inject_e001,
    "E002": _inject_e002,
    "E003": _inject_e003,
    "E004": _inject_e004,
    "E005": _inject_e005,
    "E006": _inject_e006,
    "D001": _inject_d001,
    "D002": _inject_d002,
    "D003": _inject_d003,
    "D004": _inject_d004,
    "D005": _inject_d005,
    "D006": _inject_d006,
    "D007": _inject_d007,
    "S001": _inject_s001,
    "S002": _inject_s002,
    "S003": _inject_s003,
    "S004": _inject_s004,
    "A001": _inject_a001,
    "A002": _inject_a002,
    "A003": _inject_a003,
    "A004": _inject_a004,
    "M001": _inject_m001,
    "M002": _inject_m002,
    "M003": _inject_m003,
    "M004": _inject_m004,
    "M005": _inject_m005,
}


def known_defects() -> List[str]:
    """Every injectable rule id, sorted."""
    return sorted(INJECTORS)


def apply_defects(blueprint: Blueprint, rules: Sequence[str]) -> None:
    """Apply each rule's injector to ``blueprint``, in the given order."""
    for rule in rules:
        injector = INJECTORS.get(rule)
        if injector is None:
            raise GeneratorError(
                f"no defect injector for rule {rule!r}; known rules: "
                + ", ".join(known_defects())
            )
        injector(blueprint)
