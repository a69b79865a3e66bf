"""``lanekit.__all__`` names each public name that ``lanekit/__init__.py``
binds, once, and nothing else, so deleting or adding an entry point cannot
leave a stale export or an unexported name behind."""

import ast
from pathlib import Path
from types import ModuleType

import lanekit


def _bound_names(source):
    """The names that the top-level imports and assignments of ``source`` bind."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))


def test_guard_reads_imports_and_assignments():
    source = "import numpy as np\nfrom .io import a, b as c\nx = y = 1\n_z = 2\n"
    assert list(_bound_names(source)) == ["np", "a", "c", "x", "y", "_z"]


def test_all_lists_every_public_name_once():
    public = {name for name in _bound_names(Path(lanekit.__file__).read_text())
              if not name.startswith("_")
              and not isinstance(getattr(lanekit, name), ModuleType)}
    assert len(set(lanekit.__all__)) == len(lanekit.__all__)
    assert set(lanekit.__all__) == public
