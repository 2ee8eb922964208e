import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import paraopt

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_table_rows():
    """(module name, backticked names) for each row of the module table."""
    rows = []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `paraopt."):
            module, *names = re.findall(r"`([^`]+)`", line)
            rows.append((module, names))
    return rows


def _resolves(module, name):
    """``name`` (possibly dotted) on the module or on a class defined in it;
    a dataclass field counts even without a class-level default."""
    classes = [obj for obj in vars(module).values()
               if inspect.isclass(obj) and obj.__module__ == module.__name__]
    for owner in [module] + classes:
        if dataclasses.is_dataclass(owner) and name in {
                f.name for f in dataclasses.fields(owner)}:
            return True
        obj = owner
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_public_names_resolve_and_are_documented():
    assert len(paraopt.__all__) == len(set(paraopt.__all__))
    documented = set()
    for _, names in _api_table_rows():
        documented.update(names)
        documented.update(name.split(".")[0] for name in names)
    for name in paraopt.__all__:
        assert getattr(paraopt, name) is not None
        assert name in documented, f"{name} is missing from the README table"


def test_readme_table_names_exist():
    rows = _api_table_rows()
    assert rows
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        for name in names:
            if module_name == "paraopt.cli" and name == "paraopt":
                continue                   # the command, not an attribute
            assert _resolves(module, name), \
                f"README lists `{name}` but {module_name} has no such name"


def test_docstring_cross_references_resolve():
    # :func:, :class: and :meth: references in a module name that module's
    # own attributes
    package = Path(paraopt.__file__).parent
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(
            "paraopt" if path.stem == "__init__" else f"paraopt.{path.stem}")
        text = path.read_text(encoding="utf-8")
        for name in re.findall(r":(?:func|class|meth):`([^`]+)`", text):
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            assert obj is not None, f"{path.name} refers to missing {name}"
