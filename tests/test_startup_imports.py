"""Start-up import budget of the lazy package namespaces.

``import repro.cli`` must load only what argument parsing needs; every
other subsystem is imported by the subcommand that runs it. Each check
that depends on what is *not* loaded runs in a fresh interpreter.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Every package whose ``__init__`` is a lazy namespace.
PACKAGES = (
    "repro",
    "repro.arrays",
    "repro.baselines",
    "repro.campaign",
    "repro.cell",
    "repro.channel",
    "repro.core",
    "repro.estimation",
    "repro.experiments",
    "repro.mac",
    "repro.mc",
    "repro.measurement",
    "repro.obs",
    "repro.sim",
    "repro.utils",
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(statement: str) -> List[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    out = run_fresh(
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(name for name in sys.modules"
        " if name == 'repro' or name.startswith('repro.'))))\n"
    )
    return json.loads(out)


def test_import_repro_loads_no_subsystem():
    assert set(loaded_after("import repro")) <= {"repro", "repro._lazy"}


def test_cli_import_skips_unused_subsystems():
    loaded = set(loaded_after("import repro.cli"))
    assert "repro.cli" in loaded
    for name in (
        "repro.experiments.ablations",
        "repro.experiments.extensions",
        "repro.mac",
        "repro.mc",
        "repro.campaign",
        "repro.cell",
    ):
        assert name not in loaded, name


def test_figure_module_skips_campaign_cell_and_mac():
    loaded = loaded_after("import repro.experiments.fig6_multipath_effectiveness")
    assert "repro.experiments.fig6_multipath_effectiveness" in loaded
    stray = [
        name
        for name in loaded
        if name.startswith(("repro.campaign", "repro.cell", "repro.mac"))
    ]
    assert stray == []


def test_every_exported_name_resolves_lazily():
    # A fresh interpreter, so each name goes through the package's
    # ``__getattr__`` rather than a value another test already cached.
    # Both directions: every ``__all__`` name is listed and resolves, and
    # every lazy name ``dir()`` adds beyond the package's own globals is
    # in ``__all__`` and resolves, so a stale lazy-table entry fails too.
    out = run_fresh(
        "import importlib, json\n"
        f"packages = {list(PACKAGES)!r}\n"
        "missing = []\n"
        "for name in packages:\n"
        "    package = importlib.import_module(name)\n"
        "    listed = set(dir(package))\n"
        "    lazy = listed - set(vars(package))\n"
        "    for attr in sorted(lazy - set(package.__all__)):\n"
        "        missing.append(f'{name}: {attr} not in __all__')\n"
        "    for attr in sorted(set(package.__all__) | lazy):\n"
        "        if attr not in listed:\n"
        "            missing.append(f'{name}: {attr} not in dir()')\n"
        "        try:\n"
        "            getattr(package, attr)\n"
        "        except (AttributeError, ImportError) as error:\n"
        "            missing.append(f'{name}: {attr}: {error}')\n"
        "print(json.dumps(missing))\n"
    )
    assert json.loads(out) == []


def test_star_import():
    out = run_fresh(
        "from repro import *\n"
        "import repro\n"
        "from repro.sim.scenario import Scenario as defined\n"
        "assert Scenario is defined\n"
        "print([name for name in repro.__all__ if name not in globals()])\n"
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_attribute_raises(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"'{name}'"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")
