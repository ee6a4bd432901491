"""A CLI call imports only the code its session runs.

Each case runs ``repro.cli.main`` in a fresh interpreter and reads back
``sorted(sys.modules)``.  A serial check whose store batches are all
short must not load numpy (the numpy kernel sends them through the
Python path), the pool backend, the HTTP server or the paper
renderers.  A check whose batches do reach the vectorization threshold
must load numpy, which proves the switch engages.

A serial session is a plain loop, so it loads none of the process
machinery either: ``concurrent.futures``, ``multiprocessing``,
``socket``, ``ssl`` and ``selectors`` stay out of a serial check and of
a single-input serial campaign.  A process-pool session needs the
process machinery, but its fan-out loop is blocking code on threads
and queues, so it loads neither ``asyncio`` nor ``ssl``.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core.hashing.kernels import ENV_BACKEND, has_numpy

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Prints the loaded modules as the last line after one CLI call.
PROBE = """\
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""

#: Modules a serial, small-batch check has no use for.
NOT_LOADED_BY_SERIAL_CHECK = (
    "numpy", "http.server", "email", "repro.core.engine.transports", "repro.analysis", "asyncio",
    "concurrent.futures", "multiprocessing", "socket", "ssl", "selectors",
)


def _modules_after(*argv) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    for name in (ENV_BACKEND, "REPRO_FAILPOINTS"):
        env.pop(name, None)
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["exit"] in (0, 1), done.stdout
    return set(result["modules"])


#: Modules a process-pool check has no use for.
NOT_LOADED_BY_POOL_CHECK = ("asyncio", "ssl")


def _unused(modules, unused=NOT_LOADED_BY_SERIAL_CHECK) -> list:
    return sorted(name for name in modules
                  if any(name == m or name.startswith(m + ".")
                         for m in unused))


def test_serial_small_batch_check_loads_no_unused_subsystem():
    assert _unused(_modules_after("check", "seeded-sb-dcl", "--memory-model",
                                  "pso", "--runs", "20")) == []


def test_single_input_serial_campaign_loads_no_unused_subsystem():
    assert _unused(_modules_after(
        "campaign", "seeded-sb-dcl", "--scheduler", "dpor",
        "--memory-model", "pso", "--runs", "20",
        "--inputs", "w6:n_workers=6")) == []


@pytest.mark.skipif(not has_numpy(), reason="numpy backend not installed")
def test_check_with_long_batches_loads_numpy():
    assert "numpy" in _modules_after("check", "fft", "--runs", "2")


def test_pool_check_loads_no_event_loop():
    modules = _modules_after("check", "fft", "--runs", "4", "--workers", "2",
                             "--executor", "process-pool")
    assert "repro.core.engine.transports" in modules
    assert _unused(modules, NOT_LOADED_BY_POOL_CHECK) == []
