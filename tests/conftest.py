import pytest
from hypothesis import HealthCheck, settings

from curvlab import modelio

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


@pytest.fixture(autouse=True)
def _no_cached_model_files():
    """Each test starts, as a fresh process does, with no model file loaded."""
    modelio._loaded.clear()
