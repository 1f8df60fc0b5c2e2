"""Branch-cut contour integrals of z**beta / (z - alpha) on the unit circle.

Independent evaluation routes — hypergeometric closed forms, finite log
sums for rational exponents, and adaptive quadrature — plus a direct series
run only by name, and differential (ODE-residual) and integral-identity
checks that tie them together.  See the README for the CLI.

The package exports what each module lists in its own __all__.
"""

from . import branchcut, closedform, errors, hypergeometric, odecheck, quadrature, report, verify
from .branchcut import *  # noqa: F403
from .closedform import *  # noqa: F403
from .errors import *  # noqa: F403
from .hypergeometric import *  # noqa: F403
from .odecheck import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .report import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += branchcut.__all__
__all__ += closedform.__all__
__all__ += errors.__all__
__all__ += hypergeometric.__all__
__all__ += odecheck.__all__
__all__ += quadrature.__all__
__all__ += report.__all__
__all__ += verify.__all__
