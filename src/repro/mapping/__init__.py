"""Mapping view: process groups onto platform component instances (Section 3.3)."""

from repro.mapping.model import MappingDefect, MappingModel, MappingRelation

__all__ = ["MappingDefect", "MappingModel", "MappingRelation"]
