"""Every module under ``src/repro`` is reached from a paper path.

A module earns its place if the CLI, the ``serve`` stack, the campaign
programs or a benchmark imports it.  The graph is built from the
source text alone (stdlib :mod:`ast`, nothing is imported): every
``import`` and ``from ... import`` counts, including the ones inside
functions, which is where the CLI's handlers load their dependencies.

A package ``__init__`` does not reach everything it re-exports.  A name
imported from a package resolves to the submodule that defines it --
through the ``from .sub import name`` lines of an eager ``__init__`` or
the ``_EXPORTS`` table of a lazy one -- so an eager re-export cannot
keep a module alive that no caller asks for.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "repro"

ROOTS = (
    "repro.cli",
    "repro.service",
    "repro.characterization.campaign",
)
"""Entry points: the command line, the result server, and the module
that holds the campaign's figure programs.  Every file under
``benchmarks/`` is a root too."""

KEPT_UNREACHED: Dict[str, str] = {
    "repro.core.subarray_map": (
        "section 3.1 RowClone-based subarray reverse engineering; the "
        "README quickstart runs it"
    ),
    "repro.core.rowclone": (
        "the RowClone primitive the section 3.1 procedure is built on"
    ),
    "repro.casestudies.gates": (
        "the section 8.1 dual-rail MAJX gate constructions (MAJ5 "
        "full-adder identity) whose op counts the Fig 16 model assumes, "
        "executed on the simulated DRAM"
    ),
    "repro.casestudies.bitserial": (
        "the section 8.1 execution recipe (RowClone + Multi-RowCopy + "
        "MAJX APAs) the gate constructions run on"
    ),
    "repro.spice.waveform": (
        "the section 7.2 bitline sensing view; examples/sensing_waveforms.py"
    ),
}
"""Modules no root imports that stay anyway, each with its reason."""


def _module_files() -> Dict[str, Path]:
    """Dotted name -> source file, for every module of the package."""
    modules = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _module_files()


def _is_package(name: str) -> bool:
    return MODULES.get(name, Path()).name == "__init__.py"


def _absolute(module: str, node: ast.ImportFrom) -> str:
    """The absolute module a ``from`` statement in ``module`` names."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    if not _is_package(module):
        base = base[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _imports(module: Optional[str], tree: ast.AST) -> Iterator[
    Tuple[str, Optional[str], int]
]:
    """``(module, name or None, level)`` for every import in ``tree``.

    ``module`` is the importing module's dotted name (``None`` for a
    file outside the package, whose imports are all absolute).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, 0
        elif isinstance(node, ast.ImportFrom):
            target = _absolute(module, node) if module else node.module or ""
            for alias in node.names:
                yield target, alias.name, node.level


@functools.lru_cache(maxsize=None)
def _parse(name: str) -> ast.AST:
    return ast.parse(MODULES[name].read_text(), filename=str(MODULES[name]))


def _exports(package: str) -> Dict[str, str]:
    """Re-exported name -> the module it comes from, for ``package``.

    The re-exports are the ``__init__``'s ``from .sub import name``
    lines (one leading dot: inside the package) and its ``_EXPORTS``.
    """
    table: Dict[str, str] = {}
    tree = _parse(package)
    for target, name, level in _imports(package, tree):
        if level == 1:
            table[name] = target
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS"
                for t in node.targets
            )
        ):
            for name, relative in ast.literal_eval(node.value).items():
                table[name] = package + relative
    return table


def _own_imports(package: str) -> Iterator[Tuple[str, Optional[str]]]:
    """What a package ``__init__`` imports for itself, not re-exports."""
    for target, name, level in _imports(package, _parse(package)):
        if level != 1:
            yield target, name


def reached_modules(
    roots: Sequence[str] = ROOTS, files: Sequence[Path] = ()
) -> Set[str]:
    """Modules of the package reachable from ``roots`` and ``files``."""
    reached: Set[str] = set()
    queue: List[Tuple[str, Optional[str]]] = []

    def visit(target: str, name: Optional[str]) -> None:
        if not (target == PACKAGE or target.startswith(PACKAGE + ".")):
            return
        parts = target.split(".")
        for depth in range(1, len(parts) + 1):
            enter(".".join(parts[:depth]))
        if name is None or not _is_package(target):
            return
        if f"{target}.{name}" in MODULES:
            enter(f"{target}.{name}")
        elif name in _exports(target):
            visit(_exports(target)[name], name)

    def enter(module: str) -> None:
        if module in reached or module not in MODULES:
            return
        reached.add(module)
        if _is_package(module):
            queue.extend(_own_imports(module))
        else:
            queue.extend(
                (target, name) for target, name, _ in
                _imports(module, _parse(module))
            )

    for root in roots:
        visit(root, None)
        if _is_package(root):
            for source in set(_exports(root).values()):
                visit(source, None)
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        queue.extend((target, name) for target, name, _ in _imports(None, tree))
    while queue:
        visit(*queue.pop())
    return reached


def _benchmark_files() -> List[Path]:
    return sorted((ROOT / "benchmarks").rglob("*.py"))


def test_every_module_is_reached_from_a_paper_path():
    reached = reached_modules(files=_benchmark_files())
    unreached = sorted(set(MODULES) - reached - set(KEPT_UNREACHED))
    assert not unreached, (
        "modules no CLI command, serve path, campaign program or "
        f"benchmark imports: {unreached}"
    )


def test_kept_exceptions_are_still_unreached_and_present():
    reached = reached_modules(files=_benchmark_files())
    for name in KEPT_UNREACHED:
        assert name in MODULES, f"{name} is gone; drop its exception"
        assert name not in reached, f"{name} is reached; drop its exception"


def test_a_name_resolves_to_its_defining_submodule(tmp_path):
    # The package re-exports the Fig 16 model too; asking for the
    # Fig 17 name reaches only the cold-boot module and what it uses.
    caller = tmp_path / "caller.py"
    caller.write_text("from repro.casestudies import figure17_speedups\n")
    reached = reached_modules(roots=(), files=[caller])
    assert "repro.casestudies.coldboot" in reached
    assert "repro.casestudies.perfmodel" not in reached
