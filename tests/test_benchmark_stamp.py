"""The repository benchmark's configuration stamp still reads the program.

``perfbench/run.py:config_stamp()`` reads module attributes by name; a
change that deletes or renames one breaks every benchmark run. This test
loads the benchmark script the way the benchmark itself runs it (from its
file, not as a package) so such a change fails here first.
"""

import importlib.util
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(REPO_ROOT, "perfbench", "run.py")


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_config_stamp_reads_the_fixed_constants():
    stamp = _load_run().config_stamp()
    # Not switches any more: fixed values the stamp still reads.
    assert stamp["BATCH_DISPATCH"] is True
    assert stamp["FAST_REARM"] is True
    assert stamp["TIMER_WHEEL"] is False
    assert set(stamp["compiled"]) == {
        "repro.sim.event",
        "repro.sim.kernel",
        "repro.can.bitstream",
    }
