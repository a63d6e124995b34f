"""Composite (hierarchical) states: metamodel, XMI, validation."""

import pytest

from repro.errors import ModelError
from repro.uml import (
    Class,
    Model,
    Package,
    StateMachine,
    model_to_xml,
    validate_model,
    xml_to_model,
)
from repro.uml.compare import model_fingerprint
from repro.uml.plan import plan_machine, signal_key


def nested_machine():
    machine = StateMachine("m")
    machine.state("off", initial=True)
    machine.state("on")
    machine.state("idle", parent="on", initial=True)
    machine.state("busy", parent="on")
    machine.on_signal("off", "on", "power")
    machine.on_signal("idle", "busy", "work")
    machine.on_signal("busy", "idle", "rest")
    machine.on_signal("on", "off", "power_off")  # from the composite
    return machine


class TestMetamodel:
    def test_parent_links(self):
        machine = nested_machine()
        on = machine.find_state("on")
        idle = machine.find_state("idle")
        assert idle.parent is on
        assert idle in on.substates
        assert on.is_composite
        assert not idle.is_composite

    def test_initial_substate(self):
        machine = nested_machine()
        on = machine.find_state("on")
        assert on.initial_substate is machine.find_state("idle")
        power = plan_machine(machine).by_trigger[machine.find_state("off")]
        assert power[signal_key("power")][0].leaf is machine.find_state("idle")

    def test_double_initial_substate_rejected(self):
        machine = nested_machine()
        with pytest.raises(ModelError):
            machine.state("extra", parent="on", initial=True)

    def test_ancestors_and_paths(self):
        machine = nested_machine()
        idle = machine.find_state("idle")
        on = machine.find_state("on")
        assert idle.ancestors() == [on]
        assert idle.path_from_root() == [on, idle]
        assert on.contains(idle)
        assert not idle.contains(on)
        assert on.contains(on)

    def test_deep_nesting(self):
        machine = StateMachine("deep")
        machine.state("a", initial=True)
        machine.state("b", parent="a", initial=True)
        machine.state("c", parent="b", initial=True)
        a = machine.find_state("a")
        c = machine.find_state("c")
        assert plan_machine(machine).start.leaf is c
        assert c.ancestors() == [machine.find_state("b"), a]

    def test_final_cannot_nest(self):
        machine = StateMachine("m")
        machine.state("a", initial=True)
        final = machine.final_state()
        with pytest.raises(ModelError):
            machine.state("sub", parent=final)

    def test_unique_names_across_hierarchy(self):
        machine = nested_machine()
        with pytest.raises(ModelError):
            machine.state("idle")  # nested name still taken globally


class TestXmiRoundTrip:
    def wrap(self, machine):
        model = Model("M")
        package = Package("P")
        model.add(package)
        klass = Class("C", is_active=True)
        package.add(klass)
        klass.set_behavior(machine)
        return model

    def test_hierarchy_survives(self):
        model = self.wrap(nested_machine())
        recovered = xml_to_model(model_to_xml(model))
        machine = recovered.find("P::C").classifier_behavior
        on = machine.find_state("on")
        assert on.is_composite
        assert on.initial_substate.name == "idle"
        assert machine.find_state("busy").parent is on

    def test_fingerprint_stable(self):
        model = self.wrap(nested_machine())
        recovered = xml_to_model(model_to_xml(model))
        assert model_fingerprint(recovered) == model_fingerprint(model)

    def test_fingerprint_distinguishes_nesting(self):
        flat = StateMachine("m")
        flat.state("off", initial=True)
        flat.state("on")
        flat.state("idle")
        flat.state("busy")
        flat_model = self.wrap(flat)
        nested_model = self.wrap(nested_machine())
        assert model_fingerprint(flat_model) != model_fingerprint(nested_model)


class TestValidation:
    def wrap(self, machine):
        model = Model("M")
        package = Package("P")
        model.add(package)
        klass = Class("C", is_active=True)
        package.add(klass)
        klass.set_behavior(machine)
        return model

    def test_nested_states_reachable_through_initial_descent(self):
        model = self.wrap(nested_machine())
        report = validate_model(model)
        unreachable = [i for i in report.warnings if i.rule == "state-unreachable"]
        assert not unreachable, [str(i) for i in unreachable]

    def test_composite_without_initial_warned(self):
        machine = StateMachine("m")
        machine.state("a", initial=True)
        machine.state("comp")
        machine.state("sub", parent="comp")  # no initial substate
        machine.on_signal("a", "comp", "go")
        machine.on_signal("sub", "a", "back")
        model = self.wrap(machine)
        report = validate_model(model)
        assert any(i.rule == "composite-initial" for i in report.warnings)
