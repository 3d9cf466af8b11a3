"""Report whether the simulation core's hot modules load as C extensions.

The package ships pure Python and builds no extensions. :func:`module_status`
still reports, per hot module, whether the interpreter loaded it from a
compiled extension, so a benchmark stamp can say what actually ran.
"""

from __future__ import annotations

import importlib
from typing import Dict

#: The hot modules of the simulation core, in dependency order.
COMPILED_MODULES = (
    "repro.sim.event",
    "repro.sim.kernel",
    "repro.can.bitstream",
)

#: Import suffixes that mark a module as a compiled extension.
_EXTENSION_SUFFIXES = (".so", ".pyd")


def module_status() -> Dict[str, bool]:
    """Per-module flag: is it currently loaded as a compiled extension?"""
    status: Dict[str, bool] = {}
    for name in COMPILED_MODULES:
        module = importlib.import_module(name)
        origin = getattr(module, "__file__", "") or ""
        status[name] = origin.endswith(_EXTENSION_SUFFIXES)
    return status
