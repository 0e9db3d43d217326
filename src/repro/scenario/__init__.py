"""Declarative scenarios and conformance vectors.

The package turns hand-written scenario code into data (the tentpole of
the ROADMAP's conformance-suite goal):

* :mod:`repro.scenario.spec` — the versioned, strictly-validated
  :class:`ScenarioSpec` schema and its dict/JSON loader;
* :mod:`repro.scenario.compile` — spec → :class:`SimulationBundle` (or a
  ``ShardSimulation``), the build path of every front-end (flags, Python
  callers, dicts);
* :mod:`repro.scenario.run` — wire and run a spec on any of the three
  engines (the one place the instrumentation stack is assembled) and
  collect its deterministic surface;
* :mod:`repro.scenario.catalog` — the committed grid of golden
  scenarios;
* :mod:`repro.scenario.vectors` — checksummed golden vectors
  (``repro vectors generate|verify|list``) that any implementation can
  replay.
"""

from repro.scenario.catalog import CATALOG, catalog_specs, get_spec
from repro.scenario.compile import compile_spec
from repro.scenario.errors import (
    ScenarioSpecError,
    VectorError,
    VectorIntegrityError,
)
from repro.scenario.run import ScenarioArtifacts, artifact_sections, run_scenario
from repro.scenario.spec import (
    SCENARIO_SPEC_VERSION,
    ChurnSpec,
    EngineSpec,
    ScenarioSpec,
    canonical_spec_json,
    spec_from_dict,
    spec_to_dict,
)
from repro.scenario.vectors import (
    VECTOR_KIND,
    VECTOR_VERSION,
    VectorVerification,
    drift_report,
    generate_vector,
    read_vector,
    verify_vector,
    write_vector,
)

__all__ = [
    "SCENARIO_SPEC_VERSION",
    "ScenarioSpec",
    "ChurnSpec",
    "EngineSpec",
    "ScenarioSpecError",
    "spec_from_dict",
    "spec_to_dict",
    "canonical_spec_json",
    "compile_spec",
    "run_scenario",
    "artifact_sections",
    "ScenarioArtifacts",
    "CATALOG",
    "catalog_specs",
    "get_spec",
    "VECTOR_KIND",
    "VECTOR_VERSION",
    "VectorError",
    "VectorIntegrityError",
    "VectorVerification",
    "write_vector",
    "read_vector",
    "generate_vector",
    "verify_vector",
    "drift_report",
]
