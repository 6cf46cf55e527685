"""Every item of every benchmark workload runs and passes its check at one
seed, so a change that makes the benchmark report ``correct: false`` fails
here and not only in benchmark runs."""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    module = _load_workloads()
    yield module
    sys.modules.pop("perfbench_workloads", None)


@pytest.mark.parametrize("workload", ["transform-grid", "orbit-count", "asymptotics"])
def test_workload_items_pass_their_checks(workloads, workload, tmp_path):
    assert workload in workloads.WORKLOADS
    items = workloads.make_items(workload, workloads.make_inputs(workload, 1), tmp_path / "out")
    assert items
    raised = []
    for item in items:
        try:
            miss = item.run()
        except (RuntimeError, ValueError) as exc:
            # the conjugated Picard sets whose entries outgrow the absolute
            # tolerances fail by design; nothing else may raise
            assert item.name.startswith("picard conjugated by "), (item.name, exc)
            raised.append(item.name)
            continue
        assert miss is None, f"{item.name}: {miss}"
    assert len(raised) < len(items)
