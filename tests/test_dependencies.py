"""The runtime imports only what ``pyproject.toml`` declares.

Each check runs in a fresh interpreter and compares ``sys.modules``
against what that interpreter had loaded before importing ``repro``, so
packages a site hook preloads do not count.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")
# The one third-party package the runtime may load.
RUNTIME = {"numpy"}


def declared_dependencies():
    with open(PYPROJECT, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    assert block is not None, "pyproject.toml has no [project] dependencies"
    return {re.split(r"[<>=!~ \[;]", name, maxsplit=1)[0]
            for name in re.findall(r'"([^"]+)"', block.group(1))}


def new_top_level_modules(imports: str):
    """Top-level module names that ``imports`` adds to a fresh interpreter."""
    code = (
        "import importlib, json, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        f"{imports}\n"
        "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(added)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def third_party(names):
    return {
        name for name in names
        if name not in sys.stdlib_module_names
        and name != "repro"
        and not (name.startswith("__") and name.endswith("__"))
    }


def test_pyproject_declares_the_runtime_packages():
    assert declared_dependencies() == RUNTIME


def test_every_repro_module_loads_only_declared_packages():
    walk = (
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)"
    )
    assert third_party(new_top_level_modules(walk)) <= RUNTIME


def test_simulator_and_experiment_config_do_not_load_networkx():
    added = new_top_level_modules("import repro.sim, repro.experiments.config")
    assert "networkx" not in added
