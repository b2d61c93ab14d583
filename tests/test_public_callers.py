"""Every name a module of ``repro`` exports has a caller outside the tests.

A public name that only its own tests reach is code the library keeps
for nobody.  This guard parses every ``__all__`` under ``src/repro``
with ``ast`` (nothing is imported) and looks for a use of each name in
``src/``, ``benchmarks/``, ``examples/``, ``perfbench/`` and ``tools/``.
A use is an ``ast.Name`` or ``ast.Attribute`` read; an import, an
``__all__`` string or a docstring does not count.

A new public name therefore needs a caller: a workload, a figure or
extension bench, an example or the CLI.  The few names kept without one
are listed in :data:`ALLOWLIST`, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench", "tools")

#: Public names kept without a caller, and why.
ALLOWLIST = {
    "rs_statistic": "the R/S statistic of paper eq. 8",
    "stitched_covariance": "the oracle of the chunked-stitch contract "
    "(DESIGN.md §5g)",
    "validate_acvf_pd": "the positive-definiteness oracle of the "
    "correlation tests",
    "ExponentialCorrelation": "the SRD building block of eq. 10-13",
    "PowerLawCorrelation": "the LRD building block of eq. 10-13",
    "WhiteNoiseCorrelation": "the i.i.d. member of the §2 model family",
    "detect_scene_changes": "the scene cuts plan_chunks(boundaries=) "
    "takes (DESIGN.md §5g)",
}


def _exported():
    """Map each name in a ``repro`` ``__all__`` to the modules listing it."""
    exported = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                continue
            for element in node.value.elts:
                exported.setdefault(element.value, []).append(
                    str(path.relative_to(ROOT))
                )
    return exported


def _used_names():
    """Every name read as an ``ast.Name`` or ``ast.Attribute``."""
    used = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    exported = _exported()
    used = _used_names()
    orphans = sorted(
        name
        for name in exported
        if name not in used and name not in ALLOWLIST
    )
    assert not orphans, (
        f"{len(orphans)} public names have no caller outside the tests; "
        "give each a caller, delete it, or allowlist it with a reason:\n"
        + "\n".join(f"  {name} ({', '.join(exported[name])})"
                    for name in orphans)
    )


def test_allowlist_names_are_exported_and_uncalled():
    # An entry that gained a caller, or whose name was deleted, would
    # let a later orphan of the same name through unnoticed.
    exported = _exported()
    used = _used_names()
    stale = sorted(
        name for name in ALLOWLIST if name not in exported or name in used
    )
    assert not stale, f"stale allowlist entries: {stale}"
