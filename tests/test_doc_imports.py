"""Every ``repro`` import a reader copies from the docs resolves.

Walks the ``python`` code blocks of README.md and every script under
``examples/`` and checks each ``from repro... import name`` (and each
``import repro...``) against the package as it stands, so a moved or
deleted name breaks this test rather than the reader's first paste.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _sources():
    readme = (_ROOT / "README.md").read_text()
    for index, block in enumerate(_BLOCK.findall(readme)):
        yield "README.md#python-block-{}".format(index), block
    for path in sorted((_ROOT / "examples").glob("*.py")):
        yield "examples/" + path.name, path.read_text()


def _repro_imports(source):
    """``(module, name)`` per imported name; ``name`` is None for ``import m``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro" or node.module.startswith("repro."):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield alias.name, None


_SOURCES = list(_sources())


def test_docs_have_repro_imports():
    assert any(label.startswith("README") for label, _ in _SOURCES)
    assert any(list(_repro_imports(source)) for _, source in _SOURCES)


@pytest.mark.parametrize(
    "label, source", _SOURCES, ids=[label for label, _ in _SOURCES]
)
def test_doc_imports_resolve(label, source):
    for module_name, name in _repro_imports(source):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # ``from package import submodule`` imports the submodule.
        try:
            importlib.import_module("{}.{}".format(module_name, name))
        except ModuleNotFoundError:
            pytest.fail("{}: cannot import {} from {}".format(label, name, module_name))
