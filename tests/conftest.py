import pytest

from viscowave import modal_dynamics, volterra


@pytest.fixture(autouse=True)
def empty_operator_slot():
    """Every test starts and ends with basis_operator's slot empty, so what it
    inverts does not depend on the tests run before it."""
    modal_dynamics.release_operator()
    yield
    modal_dynamics.release_operator()


@pytest.fixture
def inverted_rows(monkeypatch):
    """Kernel rows volterra._reciprocal inverts, one entry per call."""
    counts = []
    reciprocal = volterra._reciprocal

    def counting(a):
        counts.append(a.shape[0])
        return reciprocal(a)

    monkeypatch.setattr(volterra, "_reciprocal", counting)
    return counts
