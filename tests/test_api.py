import avmkit

# The package's public names, in `__all__` order. A name removed from the
# library must leave this list and `__all__` together.
PUBLIC_API = [
    "BddManager",
    "KripkeStructure", "UnknownAtomError", "check_explicit", "check_symbolic",
    "to_kripke", "witness",
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


def test_exports_are_pinned():
    assert avmkit.__all__ == PUBLIC_API


def test_every_export_resolves():
    missing = [name for name in avmkit.__all__ if not hasattr(avmkit, name)]
    assert missing == []
