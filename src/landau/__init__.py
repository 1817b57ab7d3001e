"""Numerical spectral analysis of the perturbed Landau Hamiltonian.

Modules: fields (profiles, gauge, counting measure), operator (channel
matrices, zero modes, ladders), spectra (eigensolves, clusters, counting),
projections (Gram identities, Toeplitz operators), asymptotics
(verification harness), cli (command-line front end).
"""

__version__ = "0.1.0"
