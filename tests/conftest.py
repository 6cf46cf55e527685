import pytest


@pytest.fixture
def fresh_j_caches():
    """Empty J's memoised window scans and Bessel tables before and after a
    test, so that a table built under a patched Bessel layer never outlives
    the patch and a table the test needs is built, and audited, afresh."""
    from hypcycles import bounds

    def clear():
        bounds._window_scan.cache_clear()
        bounds._k_table.cache_clear()

    clear()
    yield
    clear()
