"""Package-level tests: exports, exception hierarchy, entry points."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import repro
from repro.exceptions import (
    InfeasibleProblemError,
    InvalidAllocationError,
    InvalidDatabaseError,
    InvalidItemError,
    ReproError,
    SimulationError,
    SolverLimitError,
)


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_is_pep440_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(part.isdigit() for part in parts[:2])

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.baselines",
            "repro.workloads",
            "repro.simulation",
            "repro.analysis",
            "repro.experiments",
            "repro.io",
            "repro.cli",
            "repro.service",
            "repro.obs",
            "repro.verify",
        ],
    )
    def test_subpackage_all_names_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_quickstart_from_docstring_runs(self):
        """The module docstring's example must actually work."""
        from repro import DRPCDSAllocator, WorkloadSpec, generate_database

        database = generate_database(WorkloadSpec(num_items=60, seed=7))
        outcome = DRPCDSAllocator().allocate(database, num_channels=5)
        assert outcome.allocation.num_channels == 5


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            InvalidItemError,
            InvalidDatabaseError,
            InvalidAllocationError,
            InfeasibleProblemError,
            SolverLimitError,
            SimulationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, ReproError)
        assert issubclass(exception, Exception)

    def test_catching_the_base_class_works(self):
        from repro.core.item import DataItem

        with pytest.raises(ReproError):
            DataItem("x", -1.0, 1.0)

    def test_library_never_raises_bare_exceptions_for_bad_input(self):
        """A representative sample of bad inputs across modules all
        raise ReproError subclasses, not ValueError/TypeError."""
        from repro.core.database import BroadcastDatabase
        from repro.core.drp import drp_allocate
        from repro.workloads.generator import WorkloadSpec

        cases = [
            lambda: BroadcastDatabase([]),
            lambda: WorkloadSpec(num_items=0),
        ]
        for case in cases:
            with pytest.raises(ReproError):
                case()
        db = BroadcastDatabase.from_pairs({"a": (1.0, 1.0)})
        with pytest.raises(ReproError):
            drp_allocate(db, 5)


class TestEntryPoints:
    def test_python_dash_m_repro(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "drp-cds" in result.stdout

    def test_main_returns_int(self):
        from repro.cli import main

        assert main(["list"]) == 0


class TestImportOrder:
    """``repro.service.serve`` imports ``RotatingDrift`` from
    ``repro.simulation.adaptive``, whose ``run_adaptive_simulation``
    imports the service back inside its body.  Either module imported
    first, in a fresh interpreter, must leave both usable."""

    @pytest.mark.parametrize(
        "first", ["repro.service", "repro.simulation.adaptive"]
    )
    def test_either_module_imports_first(self, first):
        code = (
            f"import {first}\n"
            "from repro.simulation.adaptive import RotatingDrift\n"
            "from repro.service import BroadcastService\n"
            "print(RotatingDrift.__module__, BroadcastService.__module__)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [
            "repro.simulation.adaptive",
            "repro.service.serve",
        ]
