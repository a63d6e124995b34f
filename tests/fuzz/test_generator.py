"""Generator determinism, distinctness, validation and factory tokens."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.errors import GeneratorError
from repro.genmodel import (
    GeneratorConfig,
    blueprint_json,
    builder_token,
    config_for_seed,
    decode_config,
    encode_config,
    generate_blueprint,
    generate_model,
)
from repro.exploration.spec import resolve_builder


class TestConfigValidation:
    def test_defaults_are_valid(self):
        GeneratorConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_processes": 1},
            {"n_processes": 65},
            {"efsm_depth": 0},
            {"fanout": 9},
            {"topology": "ring"},
            {"topology": "mesh", "n_segments": 6},
            {"topology": "chain", "n_segments": 1},
            {"n_processes": 2, "request_reply": 2},
            {"seed": "zero"},
        ],
    )
    def test_out_of_range_rejected(self, overrides):
        with pytest.raises(GeneratorError):
            GeneratorConfig(**overrides)

    def test_round_trip_through_dict(self):
        config = GeneratorConfig(
            seed=9, topology="mesh", n_segments=3, inject_defects=("E001",)
        )
        assert GeneratorConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(GeneratorError, match="unknown"):
            GeneratorConfig.from_dict({"seed": 1, "n_procs": 4})

    def test_replace_revalidates(self):
        config = GeneratorConfig()
        with pytest.raises(GeneratorError):
            config.replace(n_pes=0)


class TestDeterminism:
    def test_same_seed_byte_identical_in_process(self):
        config = GeneratorConfig(seed=17, topology="star", n_segments=3)
        first = blueprint_json(generate_blueprint(config))
        second = blueprint_json(generate_blueprint(config))
        assert first == second

    def test_same_seed_byte_identical_across_subprocesses(self):
        """The determinism contract must hold across interpreter runs —
        no dict-order, hash-seed or process-state dependence."""
        config = GeneratorConfig(seed=23, topology="chain", n_segments=3)
        snippet = (
            "import sys, json\n"
            "from repro.genmodel import GeneratorConfig, generate_blueprint, "
            "blueprint_json\n"
            f"config = GeneratorConfig.from_dict({config.to_dict()!r})\n"
            "sys.stdout.write(blueprint_json(generate_blueprint(config)))\n"
        )
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0] == blueprint_json(generate_blueprint(config))

    def test_different_seeds_structurally_distinct(self):
        """Smoke statistics over 50 seeds: the seed must actually matter."""
        dumps = {}
        for seed in range(50):
            config = config_for_seed(seed)
            dumps[seed] = blueprint_json(generate_blueprint(config))
        assert len(set(dumps.values())) == 50
        # the spread covers every topology and several ring sizes
        topologies = {
            json.loads(dump)["config"]["topology"] for dump in dumps.values()
        }
        assert topologies == {"single", "paper", "chain", "star", "mesh"}
        ring_sizes = {
            len(json.loads(dump)["application"]["processes"])
            for dump in dumps.values()
        }
        assert len(ring_sizes) >= 4

    def test_seed_changes_machine_content(self):
        one = generate_blueprint(GeneratorConfig(seed=1))
        two = generate_blueprint(GeneratorConfig(seed=2))
        assert blueprint_json(one) != blueprint_json(two)
        # same shapes, different drawn content
        assert len(one["application"]["components"]) == len(
            two["application"]["components"]
        )


class TestGeneratedModel:
    def test_views_share_one_uml_model(self):
        generated = generate_model(GeneratorConfig(seed=5))
        assert generated.platform.model is generated.application.model
        assert generated.mapping.application is generated.application

    def test_all_groups_mapped(self):
        generated = generate_model(GeneratorConfig(seed=5))
        for group_name in generated.application.groups:
            assert generated.mapping.pe_of_group(group_name) is not None

    def test_topologies_build(self):
        for topology in ("single", "paper", "chain", "star", "mesh"):
            config = GeneratorConfig(
                seed=3, topology=topology, n_segments=3, n_pes=4
            )
            generated = generate_model(config)
            assert len(generated.platform.processing_elements) == 4


    def test_mapped_pes_are_the_ones_the_mapping_relation_allows(self, monkeypatch):
        """The blueprint asks the relation's pair rule about the library's
        PE specs: a library whose NiosDSP has no cycle cost for general
        processes leaves the generated groups on the NiosCPUs."""
        from repro.genmodel import platgen
        from repro.platform.library import standard_library
        from repro.tutprofile.tags import ProcessType

        def mapped_types():
            blueprint = generate_blueprint(config_for_seed(2))  # heterogeneous
            types = {pe["name"]: pe["type"] for pe in blueprint["platform"]["pes"]}
            return {types[pe] for _, pe in blueprint["mapping"]["assignments"]}

        def no_general_dsp(profile=None):
            library = standard_library(profile)
            spec = library.processing_element("NiosDSP")
            del spec.cycles_per_statement[ProcessType.GENERAL]
            return library

        assert mapped_types() == {"NiosCPU", "NiosDSP"}
        monkeypatch.setattr(platgen, "standard_library", no_general_dsp)
        assert mapped_types() == {"NiosCPU"}


class TestFactoryTokens:
    def test_token_round_trip(self):
        config = GeneratorConfig(
            seed=41, topology="mesh", n_segments=3, inject_defects=("A001",)
        )
        assert decode_config(encode_config(config)) == config

    def test_token_resolves_to_builder(self):
        config = GeneratorConfig(seed=8)
        token = builder_token(config)
        builder = resolve_builder(token)
        application, platform = builder()
        assert sorted(application.groups)
        assert builder.generator_config == config

    def test_builder_rejects_grouping_override(self):
        builder = resolve_builder(builder_token(GeneratorConfig(seed=8)))
        with pytest.raises(GeneratorError):
            builder(grouping={"p0": "g0"})

    def test_malformed_token_rejected(self):
        with pytest.raises(GeneratorError):
            decode_config("notbase32!!!")
