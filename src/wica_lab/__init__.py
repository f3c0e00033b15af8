"""Weighted-independence nonlinear ICA toolkit.

The package turns the weighted independence index (wii) into a training
objective: synthesize independent sources, scramble them with an exactly
invertible nonlinear mixing, fit an autoencoder whose cost adds the wii
of the encoded batch to the reconstruction error, and score the encoder
output against the true sources with permutation-matched rank
correlations.

Each public name is imported from the module that lists it in __all__
(from wica_lab.trainer import train); the package root re-exports nothing.
"""

__version__ = "0.1.0"
