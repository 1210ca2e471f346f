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
    """Count np.linalg.eigh/eigvalsh calls, starting with an empty spectrum memo."""
    from telent.matfun import _psd_spectrum_of_bytes

    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counting(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    _psd_spectrum_of_bytes.cache_clear()
    yield calls
    _psd_spectrum_of_bytes.cache_clear()
