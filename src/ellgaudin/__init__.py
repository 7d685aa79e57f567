"""Elliptic Gaudin model at desk scale.

Layers, bottom up:

``elliptic``
    Odd Jacobi theta function, its logarithmic derivative, and the
    quasi-periodic kernel ``w_c``, all evaluated as truncated Taylor jets;
    ``Jet`` is the one jet type, one array of scalar, vector or matrix
    coefficients, and its arithmetic is three array routines.
``liealg``
    Type A root systems with their root vectors in the defining
    representation; finite irreducibles and truncated dual Verma modules,
    each its weights and one stack of root-vector matrices.
``diffop``
    Matrix-coefficient differential operators in the Cartan coordinates,
    held as their coefficient arrays at one Cartan point, with
    composition, commutators, and application to a function's jet there.
``gaudin``
    The face-type elliptic Gaudin transfer matrix, the Weyl-Kac
    denominator, and the commutativity certificate in closed form.
``bethe``
    Bethe equations, a damped Newton solver, Bethe covectors, and the
    eigenvalue check for the transfer matrix.

The command line front end, ``ellgaudin.cli`` (configuration files, report
emission and the verification commands), is not imported with the
package, so ``python -m ellgaudin.cli`` runs it cleanly; import it
explicitly.

NumPy is the only runtime dependency.
"""

from . import elliptic, liealg, diffop, gaudin, bethe

__all__ = ["elliptic", "liealg", "diffop", "gaudin", "bethe"]
__version__ = "0.1.0"
