import pytest

from viscowave import volterra


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
