"""Exception types shared across the package, and the typed reader of config values."""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager


class ContractViolation(ValueError):
    """A documented precondition or invariant was broken at runtime."""

    path = ""  # where in a decoded config value, as in ".args[1]"


class DimensionMismatch(ContractViolation):
    """Operands live in spaces of different dimension."""


class PositivityError(ContractViolation):
    """A strictly positive function evaluated to a value <= 0, or to inf, first at row
    ``row`` of its batch; an evaluation along a window sets ``n``, the window index of that row."""

    n: int | None = None

    def __init__(self, node: str, value: float, row: int):
        self.node = node
        self.value = value
        self.row = row
        super().__init__(f"node '{node}' produced {'non-finite' if value > 0.0 else 'non-positive'} value {value!r}")


class IterationRangeError(OverflowError):
    """Closed-form iteration left the range of double precision.

    Carries the offending iterate index ``n``.
    """

    path = ""  # where in a decoded config value, as ContractViolation's

    def __init__(self, n: int, detail: str = ""):
        self.n = n
        msg = f"iterate overflow at n={n}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ConfigError(ValueError):
    """A scenario configuration failed to parse or validate."""


class UnsupportedMapError(ConfigError):
    """The exact feasibility path only accepts diagonal-affine maps."""


class DegenerateMarginError(ConfigError):
    """The rounding margin swallowed the tolerance on the window."""

    def __init__(self, n: int, epsilon: float, margin: float):
        self.n = n
        self.epsilon = epsilon
        self.margin = margin
        super().__init__(
            f"margin {margin!r} >= tolerance {epsilon!r} at window index {n}; "
            "lower the margin or shorten the window"
        )


class UnboundedSlackError(ConfigError):
    """No jump the doubling of ``max_splice_jump`` reached was inadmissible, up to ``jump``:
    the slack grows as fast as the jump, or every jump rounds away at the seed."""

    def __init__(self, jump: float):
        self.jump = jump
        super().__init__(
            f"no inadmissible jump found up to {jump!r}; slack appears unbounded "
            "or the jumps round away at the seed"
        )


class SearchSpaceError(ConfigError):
    """A grid search request exceeded the hard size limit."""


REQUIRED = object()  # the default of a field that must be present


@contextmanager
def within(step: str):
    """Prefix ``step`` to the path of a ContractViolation or IterationRangeError raised inside."""
    try:
        yield
    except (ContractViolation, IterationRangeError) as exc:
        exc.path = step + exc.path
        raise


@contextmanager
def config_path(where: str):
    """Report a ContractViolation or IterationRangeError raised inside as a ConfigError at
    ``where`` + its path."""
    try:
        yield
    except (ContractViolation, IterationRangeError) as exc:
        path = (where + getattr(exc, "path", "")).lstrip(".")
        raise ConfigError(f"'{path}': {exc}" if path else f"config {exc}") from exc


@contextmanager
def window_path(where: str):
    """Report a PositivityError raised inside along a window as a ConfigError at ``where``."""
    try:
        yield
    except PositivityError as exc:
        raise ConfigError(f"'{where}': {exc} at window index {exc.n}") from exc


def check(ok, wanted: str, value):
    """``value``, or a ContractViolation saying that it must be ``wanted``."""
    if not ok:
        raise ContractViolation(f"must be {wanted}, got {value!r}")
    return value


def number(lo=-math.inf, hi=math.inf, integer=False, open_lo=False):
    """Reader of a finite number (an int when ``integer``) in [lo, hi], or (lo, hi] when ``open_lo``."""
    wanted = ("an integer" if integer else "a finite number") + (
        f" in {'(' if open_lo else '['}{lo:g}, {hi:g}]" if lo > -math.inf else "")

    def read(value, fields=None):
        check(isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
              and (integer or abs(value) <= sys.float_info.max)
              and (lo < value if open_lo else lo <= value) and value <= hi, wanted, value)
        return value if integer else float(value)
    return read


def numbers(value, fields=None) -> list:
    """Reader of a nonempty list of finite numbers."""
    return [number()(v) for v in check(isinstance(value, (list, tuple)) and value, "a nonempty list", value)]


def rows(value, fields=None) -> list:
    """Reader of a nonempty list of equally long ``numbers`` lists."""
    table = [numbers(v) for v in check(isinstance(value, (list, tuple)) and value, "a nonempty list", value)]
    return check(len({len(row) for row in table}) == 1, "rows of one length", table)


def one_of(names):
    """Reader of a string among ``names``."""
    wanted = f"one of {{{', '.join(sorted(names))}}}"
    return lambda value, fields=None: check(isinstance(value, str) and value in names, wanted, value)


def read_fields(obj, table: dict, fields: dict | None = None) -> dict:
    """Decode the object ``obj`` by ``table``: field -> ``(read, default)``, where
    ``read(value, fields)`` and a callable default see the fields decoded before, after
    the given ``fields``."""
    check(isinstance(obj, dict), "an object", obj)
    for key in obj:
        with within(f".{key}"):
            one_of(table)(key)
    fields = dict(fields or {})
    for key, (read, default) in table.items():
        with within(f".{key}"):
            if key in obj:
                fields[key] = read(obj[key], fields)
            elif default is REQUIRED:
                raise ContractViolation("missing field")
            else:
                fields[key] = default(fields) if callable(default) else default
    return fields


def read_kind(obj, kinds: dict):
    """``build(**fields)`` for the ``(build, table)`` named by ``obj["kind"]`` in ``kinds``."""
    check(isinstance(obj, dict), "an object", obj)
    with within(".kind"):
        build, table = kinds[one_of(kinds)(obj.get("kind"))]
    return build(**read_fields({k: v for k, v in obj.items() if k != "kind"}, table))
