"""Package hygiene: every module imports cleanly and __all__ names resolve."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
    if "__main__" not in name
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.core",
        "repro.flow",
        "repro.graph",
        "repro.workload",
        "repro.prediction",
        "repro.baselines",
        "repro.experiments",
        "repro.simulation",
        "repro.serving",
        "repro.robustness",
        "repro.adaptive",
    ],
)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__")
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"


def test_py_typed_marker_shipped():
    assert (Path(repro.__file__).parent / "py.typed").exists()


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
