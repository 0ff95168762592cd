"""Package metadata: version and public names."""

import re
from pathlib import Path

import prolate_ewald

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    text = PYPROJECT.read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert prolate_ewald.__version__ == match.group(1)


def test_all_names_resolve():
    assert len(set(prolate_ewald.__all__)) == len(prolate_ewald.__all__)
    for name in prolate_ewald.__all__:
        assert hasattr(prolate_ewald, name), name
