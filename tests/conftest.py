import numpy as np
import pytest

import entkit.schmidt
from entkit import StateVector


def rand_state(rng: np.random.Generator, dims) -> StateVector:
    """Normalized Gaussian-random state on the given dims."""
    n = int(np.prod(dims))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StateVector(tuple(dims), v / np.linalg.norm(v))


def rand_product_state(rng: np.random.Generator, dims) -> StateVector:
    """Tensor product of independent random single-party vectors."""
    factors = []
    for d in dims:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        factors.append(v / np.linalg.norm(v))
    full = factors[0]
    for f in factors[1:]:
        full = np.kron(full, f)
    return StateVector(tuple(dims), full)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def factor_calls(monkeypatch):
    """``(gathers, shapes)``: each cut whose matrix is gathered, each shape the SVD is given."""
    gathers, shapes = [], []
    cut_matrix, svd = entkit.schmidt._cut_matrix, np.linalg.svd

    def counted_gather(*args):
        gathers.append(args[1])
        return cut_matrix(*args)

    def counted_svd(a, *args, **kw):
        shapes.append(np.shape(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(entkit.schmidt, "_cut_matrix", counted_gather)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return gathers, shapes
