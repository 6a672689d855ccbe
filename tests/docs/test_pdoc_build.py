"""API-reference smoke: ``python -m pdoc repro`` must build warning-free.

pdoc imports every module and parses every docstring; a module that fails
to import, a broken cross-reference, or malformed markup surfaces as a
warning on stderr.  The CI ``docs`` job runs this as its gate (and
publishes the HTML as an artifact); locally the test skips when the
``docs`` extra is not installed (``pip install -e ".[docs]"``).
"""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys

import pytest

import repro


def test_pdoc_builds_warning_free(tmp_path):
    pytest.importorskip("pdoc")
    process = subprocess.run(
        [sys.executable, "-m", "pdoc", "repro", "-o", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert process.returncode == 0, process.stderr
    warnings = [
        line
        for line in process.stderr.splitlines()
        if "Warn" in line or "Error" in line
    ]
    assert not warnings, "\n".join(warnings)
    assert (tmp_path / "repro.html").exists() or (tmp_path / "index.html").exists()


def test_every_public_module_imports():
    """The importability half of the docs gate, runnable without pdoc."""
    failures = []
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        try:
            importlib.import_module(module.name)
        except Exception as exc:  # pragma: no cover - only fires on breakage
            failures.append((module.name, repr(exc)))
    assert not failures, failures


PACKAGES = ["repro"] + [
    module.name
    for module in pkgutil.walk_packages(repro.__path__, "repro.")
    if module.ispkg
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    """Every name in a package's ``__all__`` is an attribute of the package.

    An export left behind when its definition is deleted would otherwise
    surface only in the pdoc build, which skips where pdoc is not installed.
    """
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
