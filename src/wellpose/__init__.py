"""wellpose: a finite-space laboratory for well-posed minimization.

Everything here works on finite metric spaces by exact enumeration, so
every statement about eps-argmin sets, moduli, and certificates can be
replayed and checked line by line.

Modules
-------
spaces        finite metric spaces, balls, diameters, sublevel sweeps
objectives    extended-real objectives, eps-argmin sets, moduli, regularization
parametric    parametric families, epi-continuity certificates, the vime family
perturbation  bounded perturbations, density step, openness radii, axiom checks
seminorms     seminorm expression trees on R^d
steckin       sphere-sampled seminorm calculus, metric projection, renorming
instances     canonical and random instance builders
verify        runnable invariant suite (used by the CLI verify command)
cli           command-line front end
"""

import os as _os

# Thread cap must land in the environment before numpy is first imported.
_cap = _os.environ.get("WELLPOSE_THREADS")
if _cap is not None:
    try:
        if int(_cap) >= 1:
            for _var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
            ):
                _os.environ.setdefault(_var, _cap)
    except ValueError:
        pass

__version__ = "0.1.0"

from . import spaces, objectives, parametric, perturbation, seminorms, steckin  # noqa: E402,F401
