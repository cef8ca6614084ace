"""netaug: densify networks while preserving a distance-based controllability bound.

The package adds as many edges as possible to an undirected network without
shortening the leader-to-node distances that certify a lower bound on the
dimension of its strong structurally controllable subspace. Denser graphs
are more robust (their Kirchhoff index drops), so the two augmenters here
trade no controllability guarantee for that robustness gain.
"""

from .augmentation import *
from .controllability import *
from .errors import *
from .experiments import *
from .graphs import *

__all__ = []
__all__ += augmentation.__all__
__all__ += controllability.__all__
__all__ += errors.__all__
__all__ += experiments.__all__
__all__ += graphs.__all__

__version__ = "0.1.0"
