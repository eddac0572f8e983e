"""Two-period difference-in-differences with missing outcomes.

Panel units are observed in two periods with treatment assigned between
them; either period's outcome may be missing.  The package provides the
complete-case estimator and three ways past its bias — instrument-style
corrections using auxiliary response indicators, fractional trimming bounds
for the ATT among always-respondents, and stratum-weighted estimation under
within-cell response ignorability — plus empirical response-rate tables, a
latent-strata simulator with an exact oracle, and the ``did-miss`` command
line tool.

The namespace fills on first use (PEP 562): ``import didmiss`` loads no
submodule, and the first public name, ``__all__`` or submodule asked of the
package loads all eight modules and copies their public names in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__version__ = "0.1.0"

#: The modules the package loads, and the order their ``__all__`` names are exported in.
_MODULES = ("errors", "common", "panel", "estimators", "iv", "bounds", "principal", "simulate")

if TYPE_CHECKING:
    from .bounds import *
    from .common import *
    from .errors import *
    from .estimators import *
    from .iv import *
    from .panel import *
    from .principal import *
    from .simulate import *


def _load() -> None:
    import importlib

    # alphabetically, as an eager package loads them: load order moves the heap layout
    # that peak-memory readings see
    modules = {name: importlib.import_module(f"{__name__}.{name}") for name in sorted(_MODULES)}
    globals().update({n: getattr(modules[m], n) for m in _MODULES for n in modules[m].__all__})
    globals()["__all__"] = ["__version__", *(n for m in _MODULES for n in modules[m].__all__)]


def __getattr__(name: str) -> object:
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("__")):
        _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
