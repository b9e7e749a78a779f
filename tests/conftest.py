import sys

import pytest

import dkpscatter as dk

# Derandomized examples follow from the test alone: Hypothesis would otherwise
# mix in the numeric literals of every loaded local module, so that a literal
# added anywhere in src/ or tests/ moved the examples of every property test.
# A derandomized test is seeded by a digest of its source: a test whose code
# changed but whose examples must not takes its earlier digest as @seed.
try:
    from hypothesis.internal.conjecture import providers as _providers
except ImportError:
    _providers = None
if hasattr(_providers, "_get_local_constants"):
    _NO_LOCAL_CONSTANTS = _providers.Constants()
    _providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS


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
