import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from wellpose.instances import segment_instance
from wellpose.spaces import FiniteMetricSpace

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def accept_report():
    """Record one pass/fail line per criterion and assert it."""

    def _report(number: int, ok: bool, text: str) -> None:
        line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {text}"
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return _report


@pytest.fixture
def block_calls(monkeypatch):
    """Count every FiniteMetricSpace.block call while the test runs."""
    calls = []
    real = FiniteMetricSpace.block

    def counting(space, idx, cols=None):
        calls.append(len(idx))
        return real(space, idx, cols)

    monkeypatch.setattr(FiniteMetricSpace, "block", counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(scope="session")
def segment_inst():
    """Full-resolution instance: 2001 samples, sphere mesh 1e-3."""
    return segment_instance()


@pytest.fixture(scope="session")
def coarse_inst():
    """Cheap variant for tests that only need the geometry."""
    return segment_instance(n_samples=201, mesh=5e-3)
