import sys

import pytest

import dkpscatter as dk


@pytest.fixture(scope="session")
def pot() -> dk.Potential:
    return dk.Potential(a=5.0, b=3.0)


@pytest.fixture(scope="session")
def particle() -> dk.Particle:
    return dk.Particle(m=1.0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Repeat the one-line acceptance verdicts where capture cannot hide them.
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None)
    if lines:
        terminalreporter.section("acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)
