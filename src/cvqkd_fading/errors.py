"""Exception types shared across the library.

Two failure categories are distinguished so callers (and the CLI exit codes)
can tell a bad input from a numerical breakdown:

* ``DomainError`` -- an argument violates a documented precondition.
* ``NumericalError`` -- inputs were valid but an algorithm could not deliver
  a trustworthy result (quadrature tolerance or evaluation budget not met,
  no sign change in a root bracket, a non-finite objective, ...).
"""


class DomainError(ValueError):
    """An argument is outside the documented domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a reliable result."""


class QuadratureError(NumericalError):
    """Adaptive quadrature could not meet the requested tolerance."""
