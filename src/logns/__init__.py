"""Split-step spectral solver and verification harness for the logarithmic
Schrodinger equation i u_t + Lap u + lam u ln(|u|^2) = 0 and its regularized
variant with nonlinearity 2 u ln(|u| + eps).

The modules are the API; the package root re-exports nothing.
"""

__version__ = "0.1.0"
