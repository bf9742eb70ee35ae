"""Static checks over the package's own source files."""
import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "paces"


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_scan_sees_names_read_anywhere():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> np.ndarray:\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == ["Sequence"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports only to re-export, through __all__
    unused = [f"{path.name}: {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_all_names_exactly_what_the_package_imports():
    # an export removed from the imports or from __all__ alone fails here
    import paces
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = Counter(alias.asname or alias.name
                       for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       and node.module != "__future__"
                       for alias in node.names)
    assert Counter(paces.__all__) == imported


def names_read(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``: as a name, an attribute,
    an imported name or an exact string."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                           ast.Load):
            read[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read[node.value] += 1
    return read


def unread_definitions(defining: list[str], reading: list[str]) -> list[str]:
    """Functions and classes of the ``defining`` sources that no source
    reads outside their own body, in definition order.  Dunder methods
    are called by the language, so they count as read."""
    trees = [ast.parse(source) for source in defining]
    read = Counter()
    for tree in trees + [ast.parse(source) for source in reading]:
        read += names_read(tree)
    unread = []
    for tree in trees:
        defs = sorted((node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef,
                                            ast.ClassDef))),
                      key=lambda node: node.lineno)
        unread += [node.name for node in defs
                   if not (node.name.startswith("__")
                           and node.name.endswith("__"))
                   and read[node.name] <= names_read(node)[node.name]]
    return unread


def test_the_scan_sees_definitions_read_only_by_themselves():
    source = ("class Box:\n"
              "    def __len__(self):\n        return 0\n"
              "    def size(self):\n        return self.size()\n"
              "    def weight(self):\n        return 1\n"
              "def recurse(n):\n    return recurse(n - 1)\n"
              "def by_name():\n    pass\n"
              "def unused():\n    pass\n"
              "def aliased():\n    pass\n"
              "HOOKS = {'by_name': None}\n")
    reader = "from m import aliased as other\nBox().weight()\n"
    assert unread_definitions([source], [reader]) == [
        "size", "recurse", "unused"]


def test_no_helper_is_read_by_the_tests_alone():
    # __init__.py only re-exports, so its imports read nothing; the
    # benchmark calls the package as a user would
    defining = [path.read_text(encoding="utf-8")
                for path in sorted(PACKAGE.glob("*.py"))
                if path.name != "__init__.py"]
    perfbench = PACKAGE.parent.parent / "perfbench"
    reading = [path.read_text(encoding="utf-8")
               for path in sorted(perfbench.glob("*.py"))]
    assert unread_definitions(defining, reading) == []


def fields_read(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree`` as an attribute or an
    exact string, the two ways a dataclass field is read."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read[node.value] += 1
    return read


def is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute)
            and target.attr == "dataclass")


def unread_fields(defining: list[str], reading: list[str]) -> list[str]:
    """``Class.field`` of every ``@dataclass`` field of the ``defining``
    sources that no source of either list reads, in definition order."""
    trees = [ast.parse(source) for source in defining]
    read = Counter()
    for tree in trees + [ast.parse(source) for source in reading]:
        read += fields_read(tree)
    unread = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    map(is_dataclass_decorator, node.decorator_list)):
                unread += [f"{node.name}.{stmt.target.id}"
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)
                           and "ClassVar" not in ast.unparse(stmt.annotation)
                           and not read[stmt.target.id]]
    return unread


def test_the_scan_sees_fields_no_source_reads():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "from typing import ClassVar\n"
              "@dataclass(frozen=True)\n"
              "class Report:\n"
              "    total: float\n    by_name: int\n    written: int\n"
              "    kept: int\n    shadowed: int\n    LIMIT: ClassVar[int] = 3\n"
              "@dataclasses.dataclass\n"
              "class Row:\n    cell: int\n"
              "class Plain:\n    note: str\n"
              "KEYS = ('by_name',)\n"
              "def make(shadowed):\n"
              "    r = Report(1.0, 2, 3, kept=4, shadowed=shadowed)\n"
              "    r.written = 5\n"
              "    return r.total, shadowed\n")
    assert unread_fields([source], []) == [
        "Report.written", "Report.kept", "Report.shadowed", "Row.cell"]
    assert unread_fields([source], ["print(row.cell, report.kept)"]) == [
        "Report.written", "Report.shadowed"]


def test_no_dataclass_field_is_read_by_the_tests_alone():
    # the oracle's result fields are the reference the tests compare with
    defining = [path.read_text(encoding="utf-8")
                for path in sorted(PACKAGE.glob("*.py"))
                if path.name not in ("__init__.py", "oracle.py")]
    perfbench = PACKAGE.parent.parent / "perfbench"
    reading = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("oracle.py"))
               + sorted(perfbench.glob("*.py"))]
    assert unread_fields(defining, reading) == []


def builtin_sum_reads(source: str) -> list[int]:
    """Lines where ``source`` reads the name ``sum``, in line order.  A
    method such as ``array.sum`` is an attribute, not the built-in."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == "sum"
                  and isinstance(node.ctx, ast.Load))


def test_the_scan_sees_every_read_of_the_builtin_sum():
    source = ("import numpy as np\n"
              "total = sum([0.1, 0.2])\n"
              "cells = np.ones(3).sum(axis=0) + np.cumsum([1])[0]\n"
              "rows = list(map(sum, [[1], [2]]))\n"
              "def f(values):\n    return left_sum(values)\n")
    assert builtin_sum_reads(source) == [2, 4]


def test_the_package_never_uses_the_builtin_sum():
    # from Python 3.12 on, sum compensates float roundoff and returns
    # other bits than 3.10 and 3.11; model.left_sum adds the same way on
    # every version
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line in builtin_sum_reads(path.read_text(encoding="utf-8"))]
    assert found == []


def tolerance_reads(source: str) -> list[int]:
    """Lines where ``source`` reads ``tolerance_w``: as an attribute, a
    name or an exact string such as ``getattr``'s, in line order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr == "tolerance_w"
                  or isinstance(node, ast.Name) and node.id == "tolerance_w"
                  or isinstance(node, ast.Constant)
                  and node.value == "tolerance_w")


def test_the_scan_sees_every_read_of_the_tolerance():
    source = ("def bound(policy):\n"
              "    slack = policy.tolerance_w\n"
              "    return getattr(policy, 'tolerance_w') + slack\n"
              "def tolerance_w():\n    return 1e-9\n"
              "note = 'the tolerance_w of a policy'\n"
              "tolerance = tolerance_w\n")
    assert tolerance_reads(source) == [2, 3, 7]


def test_only_the_model_reads_the_band_tolerance():
    # the band's slack enters one test, through PrivacyPolicy.bound_w;
    # the oracle is the reference the tests compare against, so it forms
    # its own
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in ("model.py", "oracle.py")
             for line in tolerance_reads(path.read_text(encoding="utf-8"))]
    assert found == []


#: numpy's set routines, by the names a module reads them under
SET_ROUTINES = {"unique", "setdiff1d", "intersect1d", "union1d", "setxor1d",
                "isin", "in1d"}


def set_routine_reads(source: str) -> list[int]:
    """Lines where ``source`` reads one of numpy's set routines, as an
    attribute such as ``np.unique`` or as a name imported from numpy, in
    line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in SET_ROUTINES:
            found.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "numpy"):
            found += [node.lineno for alias in node.names
                      if alias.name in SET_ROUTINES]
    return sorted(found)


def test_the_scan_sees_every_read_of_a_numpy_set_routine():
    source = ("import numpy as np\n"
              "from numpy import isin as member, sort\n"
              "keys = np.unique(np.sort([2, 1]))\n"
              "def unique_keys(pairs):\n    return dict(pairs)\n"
              "rest = np.setdiff1d(keys, [1]) + np.lib.union1d(keys, [3])\n"
              "flags = np.isfinite(keys)\n")
    assert set_routine_reads(source) == [2, 3, 6, 6]


def test_the_package_never_uses_a_numpy_set_routine():
    # their first call is dear in memory: in a process that has imported
    # paces.cli, the first np.setdiff1d raised peak RSS by 1.18 MB and
    # the first np.unique by 0.93 MB, against 0.30 MB for a boolean-mask
    # selection (numpy 2.4, Python 3.11); a mask or a sort does their work
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line in set_routine_reads(path.read_text(encoding="utf-8"))]
    assert found == []


PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def declared_dependencies(pyproject: str) -> set[str]:
    """Import names of ``[project] dependencies`` in a pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one array by hand
        block = pyproject.split("\ndependencies = [", 1)[1].split("]", 1)[0]
        specs = re.findall(r'"([^"]+)"', block)
    else:
        specs = tomllib.loads(pyproject)["project"]["dependencies"]
    return {re.match(r"[\w.-]+", spec).group().lower().replace("-", "_")
            for spec in specs}


def foreign_imports(source: str, allowed: set[str]) -> list[str]:
    """Top-level modules that ``source`` imports from outside the standard
    library, its own package and ``allowed``, in import order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    tops = [name.split(".")[0] for name in found]
    return [top for top in tops
            if top not in sys.stdlib_module_names | {"paces"} | allowed]


def test_the_scan_sees_every_foreign_import():
    source = ("import os.path, numpy\nfrom . import model\n"
              "from paces.model import Instance\n"
              "def f():\n    from jsonschema import validate\n")
    assert foreign_imports(source, {"numpy"}) == ["jsonschema"]


@pytest.mark.parametrize("tomllib", ["present", "absent"])
def test_dependencies_read_with_or_without_tomllib(monkeypatch, tomllib):
    if tomllib == "absent":
        monkeypatch.setitem(sys.modules, "tomllib", None)
    assert declared_dependencies(
        '[project]\ndependencies = [\n    "numpy>=1.24",\n'
        '    "Typing-Extensions ; python_version<\'3.11\'",\n]\n') \
        == {"numpy", "typing_extensions"}


def test_the_package_imports_only_what_it_declares():
    allowed = declared_dependencies(PYPROJECT.read_text(encoding="utf-8"))
    foreign = [f"{path.name}: {name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for name in foreign_imports(path.read_text(encoding="utf-8"),
                                           allowed)]
    assert foreign == []
