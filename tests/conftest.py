from pathlib import Path

import pytest
from hypothesis import Phase, settings

from avmkit.dsl import parse_model

# The mutation gate's profile (`tests/mutants.py`): a failing example fails
# the test as it was found, without shrinking or explaining it, so a caught
# mutant is reported in seconds. Which examples run does not change.
settings.register_profile(
    "mutants", phases=[phase for phase in Phase if phase not in (Phase.shrink, Phase.explain)])

REPO_ROOT = Path(__file__).resolve().parent.parent
MODEL_FILE = REPO_ROOT / "src" / "avmkit" / "models" / "antivirus.avm"
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
BENCH_CORPUS_DIR = REPO_ROOT / "bench" / "corpus"


@pytest.fixture(scope="session")
def bundled_doc():
    return parse_model(MODEL_FILE.read_text(encoding="utf-8"), name="antivirus")


@pytest.fixture(scope="session")
def coupled(bundled_doc):
    return bundled_doc.coupled


@pytest.fixture(scope="session")
def control(bundled_doc):
    return bundled_doc.coupled.control


@pytest.fixture(scope="session")
def preventive(bundled_doc):
    return bundled_doc.coupled.preventive
