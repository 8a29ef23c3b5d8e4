import pytest

from cubelab import analysis, models, scores, statespace


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts with no memoized log-weight, score, tilt, isometry,
    orbit or quotient-LP tables, so tests that count builds or solves do not
    depend on which tests ran before."""
    models.log_weight_table.cache_clear()
    statespace._isometry_images.cache_clear()
    statespace._cube_orbits.cache_clear()
    analysis._quotient_lp.cache_clear()
    scores._memo_table.cache_clear()
    scores._memo_tilt.cache_clear()
    yield
