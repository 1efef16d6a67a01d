"""Session fixtures for the expensive built objects.

Graphs are built once and shared; every consumer re-runs its own checks
on top of the shared context, so sharing never weakens a test.
"""

import pytest

from qgrass.grassmann import build_graph, spectral_system
from qgrass.linalg import ExactMatrix


@pytest.fixture(scope="session")
def j252():
    gc = build_graph(2, 5, 2)
    gc.build_checks.require()
    return gc


@pytest.fixture(scope="session")
def j252_spectral(j252):
    ss = spectral_system(j252)
    ss.checks.require()
    return ss


@pytest.fixture(scope="session")
def j341():
    gc = build_graph(3, 4, 1)
    gc.build_checks.require()
    return gc


@pytest.fixture
def built_matrices(monkeypatch):
    """Every ExactMatrix constructed while the test runs, in order."""
    built = []
    init = ExactMatrix.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ExactMatrix, "__init__", recording_init)
    return built
