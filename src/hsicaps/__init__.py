"""Interpretable two-stage capsule network for hyperspectral imagery.

Library layout:

* ``data`` — cube/label IO, normalization, band slices, patches, splits
* ``spectral`` — per-slice feature nets and the index enhancement
* ``capsule`` — 2-D convolution, squash, dynamic routing
* ``model`` — ordered parameter registry and batched forward
* ``training`` — losses, Adam, training loop, checkpoints, gradcheck
* ``evaluation`` — accuracy/kappa/McNemar, entropy, Dunn, reflectance indices
* ``synthetic`` — seeded desk-scale scene generator
* ``cli`` — train / evaluate / predict / interpret / gradcheck commands
"""

from .errors import ConfigError, DataError, HsiCapsError, NumericError

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "HsiCapsError",
    "NumericError",
    "__version__",
]
