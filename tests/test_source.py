"""Static checks over the package's own source files."""
import ast
from pathlib import Path

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
