"""Numerical spectral analysis of the perturbed Landau Hamiltonian.

Modules: fields (profiles, gauge, counting measure), operator (channel
matrices, zero modes, ladders), spectra (eigensolves, clusters, counting),
projections (Gram identities, Toeplitz operators), asymptotics
(verification harness), cli (command-line front end).
"""

from .fields import (EffectiveWeight, FieldSpec, GaugeData, ProfileTerm,
                     build_gauge, check_regularity, counting_measure,
                     effective_weight)
from .operator import (ChannelOperator, RadialFunction, RadialMesh,
                       build_channel, default_channel_cut, ladder_apply,
                       ladder_raise, zero_mode)

__version__ = "0.1.0"
