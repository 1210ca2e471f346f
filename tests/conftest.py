import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count np.linalg.eigh/eigvalsh calls, and the matrices eigh gets in them
    ("eigh_matrices", a stacked call counts each of its matrices), starting
    with no pair core kept."""
    from telent.tre import _CORES

    calls = {"eigh": 0, "eigvalsh": 0, "eigh_matrices": 0}
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            if _name == "eigh":
                calls["eigh_matrices"] += math.prod(np.shape(a)[:-2])
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    _CORES.clear()
    yield calls
    _CORES.clear()
