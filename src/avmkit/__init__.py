"""avmkit: validation and CTL model checking for coupled behavior models.

Two labeled transition systems (a preventive behavior and a control behavior)
are linked by a mapping from control states to preventive paths and by a
four-approach partition. This package validates that coupling structurally,
checks CTL properties with twin explicit-state and BDD-symbolic engines, and
exports SMV programs and DOT diagrams.
"""

from .bdd import AND, OR, BddManager, BddRef
from .checker import (
    KripkeStructure,
    UnknownAtomError,
    check_explicit,
    check_symbolic,
    holds,
    to_kripke,
    witness,
)
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
from .export import NameCollisionError, to_dot, to_smv
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
