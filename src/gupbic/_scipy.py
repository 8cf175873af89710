"""Module-level stand-ins for scipy functions that import scipy on first call.

No gupbic command calls ``quad`` or ``solve_ivp``: ``basis``, ``matcher``,
``spectrum`` and ``oracle`` only expose them under those names, bound to
these stand-ins, so each name stays an ordinary module attribute that the
benchmark's tracer can patch.  scipy is not a runtime dependency (it comes
with the ``test`` extra): it loads only if a caller calls a stand-in, and
importing ``scipy.integrate`` would take about 0.5-0.7 s on a 2-core Xeon
VM and the peak resident memory of a process that has imported the CLI from
about 34 to 80 MB (Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
"""

from __future__ import annotations

import importlib
from typing import Callable


def lazy(module: str, name: str) -> Callable:
    """``scipy.<module>.<name>``, imported on the first call and forwarded to."""

    def proxy(*args, **kwargs):
        return getattr(importlib.import_module(f"scipy.{module}"), name)(*args, **kwargs)

    proxy.__name__ = proxy.__qualname__ = name
    return proxy
