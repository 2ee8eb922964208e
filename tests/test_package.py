import re
from pathlib import Path

import paraopt

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_table_names():
    """Backticked names in the rows of the README's module table."""
    rows = [line for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `paraopt.")]
    names = set()
    for span in re.findall(r"`([^`]+)`", "\n".join(rows)):
        names.add(span)
        names.add(span.split(".")[0])     # `CoarseLinearization.blocks`
    return names


def test_public_names_resolve_and_are_documented():
    assert len(paraopt.__all__) == len(set(paraopt.__all__))
    documented = _api_table_names()
    for name in paraopt.__all__:
        assert getattr(paraopt, name) is not None
        assert name in documented, f"{name} is missing from the README table"
