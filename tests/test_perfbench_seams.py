"""Guard the library names the benchmark harness reaches.

The traced benchmark pass wraps layer entry points by name
(``LAYER_PATCHES`` and ``POOL_PATCHES`` in ``perfbench/tracing.py``),
and ``perfbench/harness.py`` and ``perfbench/workloads.py`` import
library names at module level.  A change under ``src/`` that renames
or deletes one of them breaks every benchmark run.  The harness's own
self-test (``perfbench/test_perfbench.py``) would notice, but it sits
outside ``testpaths`` and takes minutes; these checks take seconds.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", PERFBENCH / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
# Registered before it runs: its dataclasses look their module up.
sys.modules[_SPEC.name] = tracing
_SPEC.loader.exec_module(tracing)

PATCHES = tracing.LAYER_PATCHES + tracing.POOL_PATCHES


@pytest.mark.parametrize(
    "path,attribute",
    [(path, attribute) for path, attribute, _, _ in PATCHES],
    ids=[f"{path}.{attribute}" for path, attribute, _, _ in PATCHES],
)
def test_patch_target_resolves(path, attribute):
    owner = tracing._owner(path)
    if isinstance(owner, type):
        # instrument() reads a method from the class's own __dict__, so
        # an inherited one does not count.
        assert attribute in owner.__dict__, (
            f"{path} has no {attribute!r} of its own"
        )
    else:
        assert callable(getattr(owner, attribute, None)), (
            f"{path} has no callable {attribute!r}"
        )


def test_instrument_installs_and_restores_every_patch():
    originals = []
    for path, attribute, _, _ in PATCHES:
        owner = tracing._owner(path)
        originals.append((owner, attribute, vars(owner)[attribute]))
    with tracing.instrument(tracing.SpanRecorder(), PATCHES):
        for owner, attribute, original in originals:
            assert vars(owner)[attribute] is not original
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original


@pytest.mark.parametrize("module", ["harness", "workloads"])
def test_harness_module_imports_in_fresh_interpreter(module):
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(PERFBENCH)!r}]; "
        f"import {module}"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
