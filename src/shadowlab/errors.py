"""Exception types shared across the package."""

from __future__ import annotations

from contextlib import contextmanager


class ContractViolation(ValueError):
    """A documented precondition or invariant was broken at runtime."""


class DimensionMismatch(ContractViolation):
    """Operands live in spaces of different dimension."""


class PositivityError(ContractViolation):
    """A strictly positive function evaluated to a value <= 0."""

    def __init__(self, node: str, value: float):
        self.node = node
        self.value = value
        super().__init__(f"node '{node}' produced non-positive value {value!r}")


class IterationRangeError(OverflowError):
    """Closed-form iteration left the range of double precision.

    Carries the offending iterate index ``n``.
    """

    def __init__(self, n: int, detail: str = ""):
        self.n = n
        msg = f"iterate overflow at n={n}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class UnsupportedMapError(ValueError):
    """The exact feasibility path only accepts diagonal-affine maps."""


class DegenerateMarginError(ValueError):
    """The rounding margin swallowed the tolerance on the window."""

    def __init__(self, n: int, epsilon: float, margin: float):
        self.n = n
        self.epsilon = epsilon
        self.margin = margin
        super().__init__(
            f"margin {margin!r} >= tolerance {epsilon!r} at window index {n}; "
            "lower the margin or shorten the window"
        )


class NonConvergenceError(RuntimeError):
    """An iterative limit procedure failed to settle within tolerance.

    ``diameters`` traces the tail diameters that were measured.
    """

    def __init__(self, message: str, diameters):
        self.diameters = list(diameters)
        super().__init__(message)


class SearchSpaceError(ValueError):
    """A grid search request exceeded the hard size limit."""


class ConfigError(ValueError):
    """A scenario configuration failed to parse or validate."""


def config_field(obj, key: str, where: str):
    """``obj[key]`` of a parsed config object ``where``, or a ConfigError naming it."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config field '{where}' must be an object")
    if key not in obj:
        raise ConfigError(f"missing config field '{where}.{key}'")
    return obj[key]


@contextmanager
def config_path(where: str):
    """Report a ContractViolation raised inside as a ConfigError naming config path ``where``."""
    try:
        yield
    except ContractViolation as exc:
        raise ConfigError(f"'{where}': {exc}") from exc
