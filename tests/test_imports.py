"""Every name a ``src/repro`` module imports is read by that module.

An import nothing reads costs load time and misleads a reader about
what a module depends on.  The scan is stdlib-only: it parses each
module (package ``__init__`` files re-export, so they are skipped) and
collects the names its import statements bind.  A name counts as read
when it appears as a loaded ``Name`` (which covers the root of an
attribute chain such as ``np.zeros``) or as a string in ``__all__``.
An import statement whose first line carries ``# noqa: F401`` is
exempt.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def imported_names(tree, lines):
    """``(name, line)`` for each name the module's imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def read_names(tree):
    """Names the module loads, plus the strings of its ``__all__``."""
    names = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.update(
                element.value for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            )
    return names


def unused_imports(path):
    with open(path) as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    read = read_names(tree)
    return [
        (name, line)
        for name, line in imported_names(tree, source.splitlines())
        if name not in read
    ]


def test_scan_flags_an_unread_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n"
        "import numpy as np\n"
        "from typing import Dict, List  # noqa: F401\n"
        "from typing import Sequence, Tuple\n"
        "from .sibling import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: Tuple) -> None:\n"
        "    np.zeros(3)\n"
    )
    assert unused_imports(str(module)) == [("os", 1), ("Sequence", 4)]


def test_src_modules_read_every_import():
    paths = sorted(
        path for path in glob.glob(
            os.path.join(SRC, "repro", "**", "*.py"), recursive=True
        )
        if os.path.basename(path) != "__init__.py"
    )
    assert paths
    unused = [
        f"{os.path.relpath(path, SRC)}:{line}: {name}"
        for path in paths
        for name, line in unused_imports(path)
    ]
    assert not unused, "imported but never read:\n" + "\n".join(unused)
