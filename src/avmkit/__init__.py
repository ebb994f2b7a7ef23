"""avmkit: validation and CTL model checking for coupled behavior models.

Two labeled transition systems (a preventive behavior and a control behavior)
are linked by a mapping from control states to preventive paths and by a
four-approach partition. This package validates that coupling structurally,
checks CTL properties with twin explicit-state and BDD-symbolic engines, and
exports SMV programs and DOT diagrams.
"""

import importlib

from .coupled import (
    APPROACH_NAMES,
    Approach,
    ApproachPartition,
    CoupledModel,
    MappingProcess,
    approach_partition,
    build_coupled_model,
    check_approach_alignment,
    check_mapping,
    check_synchronization,
    mapping_process,
)
from .ctl import AtomicProposition, CtlFormula, CtlSyntaxError, parse_ctl
from .dsl import ModelDocument, ModelSyntaxError, PropertySpec, parse_model, render_model
from .lts import (
    Behavior,
    Path,
    Transition,
    UnknownStateError,
    build_behavior,
    enumerate_simple_paths,
    find_deadlocks,
)
from .report import CheckReport, Finding, ModelValidationError, SourcePos

__version__ = "0.1.0"

# The engines and the exporters load on first use (PEP 562), so a program
# that only parses and validates does not compile them. The module names
# resolve too, as they would after an eager import.
_ON_FIRST_USE = {
    "bdd": ("AND", "OR", "BddManager", "BddRef"),
    "checker": ("KripkeStructure", "UnknownAtomError", "check_explicit", "check_symbolic",
                "holds", "to_kripke", "witness"),
    "export": ("NameCollisionError", "to_dot", "to_smv"),
}
_HOME = {name: module for module, names in _ON_FIRST_USE.items() for name in (module, *names)}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = module if name in _ON_FIRST_USE else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())

__all__ = [
    "AND", "OR", "BddManager", "BddRef",
    "KripkeStructure", "UnknownAtomError", "check_explicit", "check_symbolic",
    "holds", "to_kripke", "witness",
    "APPROACH_NAMES", "Approach", "ApproachPartition", "CoupledModel",
    "MappingProcess", "approach_partition", "build_coupled_model",
    "check_approach_alignment", "check_mapping", "check_synchronization",
    "mapping_process",
    "AtomicProposition", "CtlFormula", "CtlSyntaxError", "parse_ctl",
    "ModelDocument", "ModelSyntaxError", "PropertySpec", "parse_model", "render_model",
    "NameCollisionError", "to_dot", "to_smv",
    "Behavior", "Path", "Transition", "UnknownStateError", "build_behavior",
    "enumerate_simple_paths", "find_deadlocks",
    "CheckReport", "Finding", "ModelValidationError", "SourcePos",
    "__version__",
]
