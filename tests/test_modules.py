"""Module boundaries of the impactdesk package."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "impactdesk")


def test_no_module_imports_a_private_name_from_a_sibling():
    # a name with a leading underscore is its module's own; a sibling that
    # needs it should get a public name or the logic moved
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level == 1 or (node.module or "").startswith(
                "impactdesk")
            found += [f"{os.path.basename(path)}:{node.lineno} {alias.name}"
                      for alias in node.names
                      if sibling and alias.name.startswith("_")]
    assert not found
