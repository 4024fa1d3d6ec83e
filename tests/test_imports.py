"""Every name a module imports is used in that module, every private
module-level name in src/ is used somewhere in src/, and every public method
or property of a class in src/ is read in src/ or perfbench/ (no linter is a
dependency).  Tests do not count as readers: a member only tests read is dead.
A fresh interpreter that imports the package and its CLI loads no scipy
module: numpy is the one run-time dependency.

__init__.py is exempt from the import scan: its imports are the package's
re-exports.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hyperajscc").glob("*.py"))
PERFBENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
MODULES = sorted(
    p for p in [*(ROOT / "src" / "hyperajscc").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression in the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(source) == ["d", "os"]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """`module:name` of each module-level private function, class or constant that no module reads.

    A read is a name loaded anywhere in any of the sources, or an attribute
    of that name (`T._make`).  Dunder names are not private.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unread += [f"{module}:{n}" for n in names if n.startswith("_") and not n.startswith("__") and n not in read]
    return sorted(unread)


def test_every_private_module_level_name_in_src_is_read():
    assert unreferenced_privates({p.name: p.read_text() for p in SOURCES}) == []


def test_guard_finds_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_unused: int = 0\nclass _Spare:\n    pass\ndef _helper():\n    return _LIMIT\n"
                "def __getattr__(name):\n    pass\n",
        "b.py": "from . import a\ndef _dead():\n    a._helper()\n",
    }
    assert unreferenced_privates(sources) == ["a.py:_Spare", "a.py:_unused", "b.py:_dead"]


def unread_public_members(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """`module:Class.name` of each public method or property of a class in `sources` that no reader reads.

    A read is an attribute loaded under that name (`layer.forward`) or a string
    constant equal to it (`setattr(cls, "vector", ...)`) anywhere in `readers`.
    Reads are matched by name alone, so any attribute of the same name counts.
    """
    read = set()
    for source in readers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef):
                unread += [
                    f"{module}:{cls.name}.{node.name}" for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_") and node.name not in read
                ]
    return sorted(unread)


def test_every_public_member_in_src_is_read_outside_the_tests():
    sources = {p.name: p.read_text() for p in SOURCES}
    readers = {**sources, **{f"perfbench/{p.name}": p.read_text() for p in PERFBENCH}}
    assert unread_public_members(sources, readers) == []


def test_guard_finds_an_unread_public_member():
    sources = {
        "a.py": "class Layer:\n    def __init__(self):\n        self.width = 1\n"
                "    def forward(self):\n        return self._helper()\n"
                "    def _helper(self):\n        pass\n"
                "    @property\n    def out_channels(self):\n        return self.width\n"
                "    def vector(self):\n        pass\n    def spare(self):\n        pass\n",
        "b.py": "from a import Layer\nLayer().forward()\nsetattr(Layer, 'vector', None)\n",
    }
    tests = {"test_a.py": "from a import Layer\nassert Layer().out_channels == Layer().spare()\n"}
    assert unread_public_members(sources, sources) == ["a.py:Layer.out_channels", "a.py:Layer.spare"]
    assert unread_public_members(sources, {**sources, **tests}) == []


def test_the_package_loads_no_scipy_module():
    probe = "import sys, hyperajscc, hyperajscc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
