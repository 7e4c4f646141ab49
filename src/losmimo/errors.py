"""Exception hierarchy shared by the library and the CLI.

Each class maps to one CLI exit code so that scripts driving the tool can
distinguish bad input from bad geometry from bad numerics.
"""


class LosMimoError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InvalidArgumentError(LosMimoError, ValueError):
    """A function argument violates its documented precondition."""

    exit_code = 2


class ConfigError(InvalidArgumentError):
    """A scene config file or a command's input failed to read, parse or
    validate, or its output file could not be written.

    The message carries the offending key (and line/column for syntax
    errors), or the path and the system's reason, so the CLI can surface a
    usable diagnostic.
    """


class DegenerateGeometryError(LosMimoError):
    """Antennas coincide, arrays intersect, or a pair sits behind the
    expansion plane of a series model."""

    exit_code = 3


class IncompatibleModeError(LosMimoError):
    """The requested operation does not apply to this archetype or sweep
    variable."""

    exit_code = 4


class UnsupportedArchetypeError(IncompatibleModeError):
    """An optimizer was pointed at an archetype it does not handle."""


class NumericalValidityError(LosMimoError):
    """A numerical validity check failed (aliasing, empty spectrum, ...)."""

    exit_code = 5


class NyquistViolationError(NumericalValidityError):
    """Phase changes by more than pi between successive scan samples, so
    unwrapping is ambiguous.  ``step_index`` is the first offending step."""

    def __init__(self, step_index: int, delta_m: float, wavelength_m: float):
        self.step_index = int(step_index)
        super().__init__(
            f"phase aliasing at step {self.step_index}: path length changes "
            f"by {delta_m:.6g} m >= lambda/2 = {wavelength_m / 2:.6g} m; "
            "reduce the step size or the scan obliquity"
        )


class NoSignalError(NumericalValidityError):
    """All channel gains are zero; no power allocation exists."""
