"""Conditioning of linear finite element matrices on anisotropic simplicial meshes.

Assembles stiffness and mass matrices for anisotropic diffusion on 1D/2D/3D
simplicial meshes, computes exact extreme eigenvalues, and evaluates
two-sided envelopes and calibrated condition-number bounds with and without
Jacobi diagonal scaling.  The package exports exactly the names in each
module's ``__all__``.
"""

from .assembly import *
from .bounds import *
from .diffusion import *
from .experiments import *
from .mesh import *
from .spectral import *

__version__ = "0.1.0"
