"""Measurement-based quantum communication simulation library.

Resource states processed by Bell measurements, a per-particle
depolarizing error model, and the protocol layers built on top:
entanglement purification, quantum error correction, encoded
transmission and quantum repeaters, together with the closed-form
error-threshold solvers.
"""

__version__ = "0.2.0"
