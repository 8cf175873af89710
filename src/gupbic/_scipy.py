"""Module-level stand-ins for scipy functions that import scipy on first call.

Importing ``scipy.integrate`` takes about 0.5-0.7 s on a 2-core Xeon VM,
longer than a whole infinite-well command, and the well commands call no
scipy function.  The modules that use (or only expose) ``quad`` and
``solve_ivp`` bind one of these stand-ins under that name, so the name stays
an ordinary module attribute that callers can patch and count, while scipy
loads only when an oracle integration (``verify``) first calls it.
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
