"""Measurement-based quantum communication simulation library.

Resource states processed by Bell measurements, a per-particle
depolarizing error model, and the protocol layers built on top:
entanglement purification, quantum error correction, encoded
transmission and quantum repeaters, together with the closed-form
error-threshold solvers.
"""

__version__ = "0.2.0"


class Frozen:
    """Base of the package's immutable value types: assigning or deleting
    an attribute raises AttributeError. A subclass declares its fields as
    `__slots__` and stores them in `__init__` by `_fill` or
    `object.__setattr__`."""

    __slots__ = ()

    def _fill(self, *values):
        """Store `values` in the fields that `__slots__` names, in order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
