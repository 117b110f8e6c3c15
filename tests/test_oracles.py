"""The oracles in `oracles.py` are references only while they share no
code with the package they check."""

import ast
from pathlib import Path


def test_oracles_import_nothing_from_psmm():
    path = Path(__file__).with_name("oracles.py")
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found: the walk is broken"
    offending = [name for name in imported
                 if name.split(".")[0] == "psmm" or name.startswith(".")]
    assert not offending, offending
