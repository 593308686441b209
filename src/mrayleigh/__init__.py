"""Soliton profiles for multitime Rayleigh and Van der Pol wave equations.

Construct geometric data (metric, connection, damping fields) and traveling
profiles u(x, t) = phi(x - lambda . t) that solve the associated PDEs, then
verify them by independent numerical routes.

The package re-exports nothing: import each name from its submodule
(``mrayleigh.closed_form``, ``coefficients``, ``geometry``, ``series``,
``oracle``, ``errors``, ``cli``).
"""

__version__ = "0.1.0"
