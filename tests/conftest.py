import math

import numpy as np
import pytest

from viscowave import modal_dynamics, spectral_basis, volterra


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


@pytest.fixture
def marched_rows(monkeypatch):
    """Rows each modal march solves, one entry per march_difference_kernel
    call made through modal_dynamics: the leading size of its kernel and
    forcing broadcast against each other."""
    counts = []
    march = modal_dynamics.march_difference_kernel

    def counting(factored, forcing, out=None):
        shape = np.broadcast_shapes(factored.kernel.shape, np.shape(forcing))
        counts.append(math.prod(shape[:-1]))
        return march(factored, forcing, out=out)

    monkeypatch.setattr(modal_dynamics, "march_difference_kernel", counting)
    return counts


@pytest.fixture
def lowest_mode_selections(monkeypatch):
    """Arguments (lengths, n_modes) of each spectral_basis._lowest_modes call,
    one entry per call."""
    calls = []
    lowest_modes = spectral_basis._lowest_modes

    def counting(lengths, n_modes):
        calls.append((lengths, n_modes))
        return lowest_modes(lengths, n_modes)

    monkeypatch.setattr(spectral_basis, "_lowest_modes", counting)
    return calls


@pytest.fixture
def formed_correlations(monkeypatch):
    """Each distinct table ModalOperator.time_correlation hands out, once, in
    the order first seen: one entry per time correlation formed."""
    tables = []
    time_correlation = modal_dynamics.ModalOperator.time_correlation

    def recording(self, m):
        table = time_correlation(self, m)
        if not any(seen is table for seen in tables):
            tables.append(table)
        return table

    monkeypatch.setattr(modal_dynamics.ModalOperator, "time_correlation", recording)
    return tables
