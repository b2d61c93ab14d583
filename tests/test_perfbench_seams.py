"""Guard the library names the benchmark harness reaches.

The traced benchmark pass wraps layer entry points by name
(``LAYER_PATCHES`` and ``POOL_PATCHES`` in ``perfbench/tracing.py``),
and ``perfbench/harness.py`` and ``perfbench/workloads.py`` import
library names at module level.  A change under ``src/`` that renames
or deletes one of them breaks every benchmark run.  The harness's own
self-test (``perfbench/test_perfbench.py``) would notice, but it sits
outside ``testpaths`` and takes minutes; these checks take seconds.

The same holds for the ``metrics=`` keyword: the five callees that
``perfbench/workloads.py`` passes it to keep it as a seam, and no other
function under ``src/`` may take it (run context is bound with
``repro.observability.recording``).
"""

import ast
import importlib.util
import inspect
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


# ---------------------------------------------------------------------
# The metrics= seams
# ---------------------------------------------------------------------

# Run context is ambient (``repro.observability.recording``); only the
# callees ``perfbench/workloads.py`` passes ``metrics=`` to keep the
# keyword, each binding the given context for the call.
METRICS_SEAMS = {
    "core/unified.py": {"UnifiedVBRModel.__init__"},  # workloads.py:116, :344
    "core/composite.py": {"CompositeMPEGModel.__init__"},  # :349
    "core/aggregate.py": {"ShardedAggregateModel.__init__"},  # :223
    "simulation/runner.py": {"overflow_vs_buffer_curve"},  # :139
    "queueing/multiplexer.py": {"AtmMultiplexer.simulate"},  # :253
}


def _seam_callables():
    from repro.core.aggregate import ShardedAggregateModel
    from repro.core.composite import CompositeMPEGModel
    from repro.core.unified import UnifiedVBRModel
    from repro.queueing.multiplexer import AtmMultiplexer
    from repro.simulation.runner import overflow_vs_buffer_curve

    return {
        "UnifiedVBRModel": UnifiedVBRModel,
        "CompositeMPEGModel": CompositeMPEGModel,
        "ShardedAggregateModel": ShardedAggregateModel,
        "overflow_vs_buffer_curve": overflow_vs_buffer_curve,
        "AtmMultiplexer.simulate": AtmMultiplexer.simulate,
    }


@pytest.mark.parametrize("name", sorted(_seam_callables()))
def test_seam_accepts_metrics(name):
    parameter = inspect.signature(_seam_callables()[name]).parameters.get(
        "metrics"
    )
    assert parameter is not None, f"{name} lost its metrics= seam"
    assert parameter.kind is inspect.Parameter.KEYWORD_ONLY
    assert parameter.default is None


def test_seam_binds_the_given_context():
    import numpy as np

    from repro.observability import RunContext, current_context
    from repro.queueing.multiplexer import AtmMultiplexer

    ctx = RunContext()
    AtmMultiplexer(1.1, buffer_size=2.0).simulate(
        np.full(8, 1.5), metrics=ctx
    )
    assert "mux.offered_work" in {e["name"] for e in ctx.snapshot()}
    assert not current_context().enabled


def _src_modules():
    package = SRC / "repro"
    for path in sorted(package.rglob("*.py")):
        yield path.relative_to(package).as_posix(), ast.parse(
            path.read_text(encoding="utf-8")
        )


def _functions(tree):
    """``(qualified name, node)`` of every function in a module."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            stack.extend((f"{prefix}{node.name}.", n) for n in node.body)
        elif isinstance(node, ast.ClassDef):
            stack.extend((f"{prefix}{node.name}.", n) for n in node.body)


def test_only_the_seams_take_metrics():
    found = {}
    for module, tree in _src_modules():
        for name, node in _functions(tree):
            args = node.args
            names = [
                a.arg
                for a in args.posonlyargs + args.args + args.kwonlyargs
            ]
            if "metrics" in names:
                found.setdefault(module, set()).add(name)
    assert found == METRICS_SEAMS


def test_merge_children_called_only_by_the_pool_engine():
    callers = {
        module
        for module, tree in _src_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "merge_children"
    }
    assert callers == {"simulation/parallel.py"}
