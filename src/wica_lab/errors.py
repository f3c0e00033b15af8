"""Exception hierarchy shared by every module in the package.

All failures raised by this package derive from WicaError so callers can
catch one type at the boundary.  Validation failures that mirror builtin
semantics also inherit the builtin (DimensionError is a ValueError) so
code written against plain numpy idioms keeps working.
"""

__all__ = [
    "WicaError",
    "DimensionError",
    "DegenerateColumnError",
    "WeightCollapseError",
    "NonFiniteError",
    "NumericalError",
    "TrainingDivergedError",
    "FileFormatError",
]


class WicaError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(WicaError, ValueError):
    """Array shape or dimensionality violates a documented contract."""


class NonFiniteError(WicaError, ValueError):
    """Input contains NaN or infinity where finite values are required."""


class DegenerateColumnError(WicaError):
    """A data column is constant where variation is required."""

    def __init__(self, column: int) -> None:
        self.column = column
        super().__init__(f"column {column} is constant")


class WeightCollapseError(WicaError):
    """Effectively all Gaussian weight fell on a single sample.

    Carries the weighting point so batch-level callers can report which
    draw collapsed.
    """

    def __init__(self, point, effective_mass: float) -> None:
        self.point = point
        self.effective_mass = effective_mass
        super().__init__(
            "weight mass beyond the top sample is "
            f"{effective_mass:.3e}; the weighted sample is a single point"
        )


class NumericalError(WicaError):
    """An iterative numerical routine failed to converge."""


class TrainingDivergedError(NumericalError):
    """The training loss became non-finite."""

    def __init__(self, step: int, value: float) -> None:
        self.step = step
        self.value = value
        super().__init__(f"cost became {value!r} at step {step}")


class FileFormatError(WicaError):
    """A serialized artifact (dataset, pipeline, model, report) does not
    match its schema."""

