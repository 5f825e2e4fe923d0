"""No module of the package imports a private name from another."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cannings"


def test_no_private_names_cross_modules():
    offenders = []
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("cannings"):
                continue
            offenders += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders


def test_every_exported_name_resolves():
    import cannings

    missing = [name for name in cannings.__all__
               if not hasattr(cannings, name)]
    assert not missing, missing
    assert len(set(cannings.__all__)) == len(cannings.__all__)
