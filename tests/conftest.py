import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a fresh interpreter from the checkout's root,
    with its src/ first on PYTHONPATH; keyword arguments go to subprocess.run,
    whose CompletedProcess (text mode, output captured) is returned."""
    def run(*args, **kwargs):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, **kwargs)
    return run


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
