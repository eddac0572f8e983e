"""Two-period difference-in-differences with missing outcomes.

Panel units are observed in two periods with treatment assigned between
them; either period's outcome may be missing.  The package provides the
complete-case estimator and three ways past its bias — instrument-style
corrections using auxiliary response indicators, fractional trimming bounds
for the ATT among always-respondents, and stratum-weighted estimation under
within-cell response ignorability — plus empirical response-rate tables, a
latent-strata simulator with an exact oracle, and the ``did-miss`` command
line tool.
"""

from . import bounds, common, errors, estimators, iv, panel, principal, simulate
from .bounds import *
from .common import *
from .errors import *
from .estimators import *
from .iv import *
from .panel import *
from .principal import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(
        name
        for module in (errors, common, panel, estimators, iv, bounds, principal, simulate)
        for name in module.__all__
    ),
]
