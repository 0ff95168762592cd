"""Package metadata: version, public names, names the benchmark uses."""

import ast
import inspect
import re
from functools import reduce
from pathlib import Path

import prolate_ewald

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
BENCHMARK = ROOT / "benchmark"


def test_version_matches_pyproject():
    text = PYPROJECT.read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert match is not None
    assert prolate_ewald.__version__ == match.group(1)


def test_all_names_resolve():
    assert len(set(prolate_ewald.__all__)) == len(prolate_ewald.__all__)
    for name in prolate_ewald.__all__:
        assert hasattr(prolate_ewald, name), name


def lookup(dotted):
    """The object a dotted name under prolate_ewald names, or None."""
    return reduce(lambda obj, attr: getattr(obj, attr, None),
                  dotted.split("."), prolate_ewald)


def test_benchmark_trace_targets_resolve():
    # The traced benchmark run only prints "trace target absent" for a name
    # it cannot find, and the metrics of that layer then read 0.  The one
    # absence expected is the soft-core pass, folded into the Coulomb pair
    # pass (realspace.pair_sums).
    tree = ast.parse((BENCHMARK / "layers.py").read_text())
    targets = next(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "TARGETS")
    names = [ast.literal_eval(key) for key in targets.keys]
    absent = [name for name in names
              if lookup(name.removeprefix("prolate_ewald.")) is None]
    assert absent == ["prolate_ewald.npt.softcore_interactions"]


def test_benchmark_workload_calls_resolve():
    # Every pe.<name> the workloads reach exists, and every call through one
    # passes arguments its signature accepts.
    tree = ast.parse((BENCHMARK / "workloads.py").read_text())

    def chain(node):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "pe" and attrs:
            return ".".join(reversed(attrs))
        return None

    names = {chain(node) for node in ast.walk(tree)} - {None}
    assert names
    for name in names:
        assert lookup(name) is not None, name
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and chain(node.func)]
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        signature = inspect.signature(lookup(chain(call.func)))
        keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        signature.bind_partial(*call.args, **keywords)
