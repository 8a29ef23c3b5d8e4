import pytest

from cubelab import scores


@pytest.fixture(autouse=True)
def fresh_score_memo():
    """Each test starts with no memoized score tables, so tests that count
    `tabulate_scores` calls do not depend on which tests ran before."""
    scores._memo_table.cache_clear()
    yield
