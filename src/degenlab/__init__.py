"""degenlab: a numerical laboratory for sign-switching degenerate elliptic PDE.

The package studies equations of the form

    sigma_{sgn(u)}(|Du + q|) F(D^2 u) = f,

where the diffusion shuts off as the gradient vanishes and the degeneracy law
switches between sigma_plus and sigma_minus across the zero set of u.  It
provides, in dependency order:

* ``laws``       degeneracy laws and Dini-type summability certificates
* ``elliptic``   Pucci extremal operators and uniformly elliptic F
* ``grids``      uniform grids on [-1, 1]^d and discrete fields
* ``benchmarks`` closed-form solutions used as solver ground truth
* ``solver``     wide-stencil / flux-form schemes, non-decreasing in each
                 neighbour for frozen sigma, and a pseudo-time solve
* ``certifier``  discrete viscosity-inequality certificates
* ``modulus``    the constructive modulus-of-continuity pipeline
* ``lab``        empirical regularity measurements (affine-excess decay)
* ``cli``        solve / certify / build-modulus / measure / report commands
"""

__version__ = "0.1.0"
