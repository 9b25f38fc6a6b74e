"""Fixtures shared by the test modules: the shipped acceptance gate, parsed as `pftau suite`
parses it, so a test that stands for a gate experiment reads that experiment from the file."""
from pathlib import Path

import pytest

from pftau.cli import RunConfig, parse_config

GATE_CONFIG = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "suite_acceptance.json"


@pytest.fixture(scope="session")
def gate_config() -> RunConfig:
    return parse_config(GATE_CONFIG.read_text())


@pytest.fixture(scope="session")
def gate_experiments(gate_config) -> dict:
    """The shipped gate's experiments by name, in suite order."""
    return {e.name: e for e in gate_config.experiments}
