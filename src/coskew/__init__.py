"""Trivariate dependence modeling toolkit.

Samplers for the extremal-coskewness, mixture, Gaussian and mixing
dependence structures; estimators for correlation, coskewness and their
rank analogues; closed-form predictions; and reproducible experiment
drivers.

Each public name is declared once, in its module's ``__all__``; the
package exports every such name, and its own ``__all__`` is those lists
joined in module order.
"""

from . import analytic, copulas, errors, estimators, experiments, marginals, samples, sweep
from .analytic import *
from .copulas import *
from .errors import *
from .estimators import *
from .experiments import *
from .marginals import *
from .samples import *
from .sweep import *

__version__ = "0.1.0"

__all__ = []
__all__ += analytic.__all__
__all__ += copulas.__all__
__all__ += errors.__all__
__all__ += estimators.__all__
__all__ += experiments.__all__
__all__ += marginals.__all__
__all__ += samples.__all__
__all__ += sweep.__all__
