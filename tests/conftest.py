import numpy as np
import pytest

from selfaffine.timeseries import ReturnsSeries


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_returns(values) -> ReturnsSeries:
    return ReturnsSeries(np.asarray(values, dtype=float))


def arfima_acf(d: float, max_lag: int) -> np.ndarray:
    """Theoretical ARFIMA(0,d,0) autocorrelations rho_1..rho_max_lag."""
    j = np.arange(1, max_lag + 1, dtype=float)
    return np.cumprod((d + j - 1.0) / (j - d))
