"""Composable scenario generation for regime-sweep testing.

The paper evaluates TMerge on three friendly dataset presets; production
feeds are not friendly.  This package crosses those presets with
orthogonal *regime axes* — crowd surges, weather/glare with feature
corruption, camera dropouts, heavy-tailed track lengths — into a named
matrix of scenarios, each a pure function of ``(spec, seed)`` with a
stable identity hash.

The sweep harness (``python -m repro.experiments scenarios``) runs the
matrix through both the batch pipeline and the streaming service and
gates per-scenario metrics against a committed baseline; see
:mod:`repro.experiments.scenarios`.
"""

from repro.scenarios.axes import (
    DropoutAxis,
    SurgeAxis,
    TailAxis,
    WeatherAxis,
)
from repro.scenarios.generator import (
    Scenario,
    ScenarioSeeds,
    build_scenario,
    compact_scene,
    compose_fault_profile,
    compose_scene,
    derive_seeds,
    fault_parts,
)
from repro.scenarios.matrix import (
    SCENARIO_MATRIX,
    SMOKE_FRAMES,
    SMOKE_SUBSET,
    scenario_by_name,
    smoke_variant,
)
from repro.scenarios.spec import ID_HEX_CHARS, ScenarioSpec

__all__ = [
    "DropoutAxis",
    "SurgeAxis",
    "TailAxis",
    "WeatherAxis",
    "Scenario",
    "ScenarioSeeds",
    "build_scenario",
    "compact_scene",
    "compose_fault_profile",
    "compose_scene",
    "derive_seeds",
    "fault_parts",
    "SCENARIO_MATRIX",
    "SMOKE_FRAMES",
    "SMOKE_SUBSET",
    "scenario_by_name",
    "smoke_variant",
    "ID_HEX_CHARS",
    "ScenarioSpec",
]
