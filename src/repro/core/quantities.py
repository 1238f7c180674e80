"""Unit-safe scalar quantities used throughout the reproduction.

The paper reasons in four physical dimensions — time, power, energy, and
frequency — plus dimensionless ratios.  Mixing them up (e.g. averaging energy
as if it were power) is the classic failure mode of measurement code, so the
library wraps each dimension in a small value type that permits only the
arithmetic that makes dimensional sense:

* ``Watts * Seconds -> Joules``  (energy = power x time)
* ``Joules / Seconds -> Watts``
* ``Joules / Watts  -> Seconds``
* same-type ``+``/``-``; scaling by plain numbers; same-type ``/`` -> float

The types are deliberately lightweight (frozen dataclasses around a float)
rather than a full units framework: the library needs safety at module
boundaries, not general unit algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

Number = Union[int, float]


@dataclass(frozen=True, slots=True, order=True)
class _Scalar:
    """Shared behaviour for one-dimensional physical quantities."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        if not self.value == self.value:  # NaN guard
            raise ValueError(f"{type(self).__name__} cannot be NaN")

    def __add__(self, other: "_Scalar") -> "_Scalar":
        self._require_same(other, "add")
        return type(self)(self.value + other.value)

    def __sub__(self, other: "_Scalar") -> "_Scalar":
        self._require_same(other, "subtract")
        return type(self)(self.value - other.value)

    def __mul__(self, factor: Number) -> "_Scalar":
        if isinstance(factor, _Scalar):
            raise TypeError(
                f"cannot multiply {type(self).__name__} by "
                f"{type(factor).__name__}; use the dedicated helpers"
            )
        return type(self)(self.value * float(factor))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["_Scalar", Number]):
        if isinstance(other, type(self)):
            return self.value / other.value
        if isinstance(other, _Scalar):
            raise TypeError(
                f"cannot divide {type(self).__name__} by {type(other).__name__}"
            )
        return type(self)(self.value / float(other))

    def __float__(self) -> float:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0.0

    def _require_same(self, other: "_Scalar", verb: str) -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot {verb} {type(other).__name__} and {type(self).__name__}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.value:g})"


class Seconds(_Scalar):
    """A duration in seconds."""


class Watts(_Scalar):
    """Average or instantaneous power in watts."""


class Joules(_Scalar):
    """Energy in joules."""


class Hertz(_Scalar):
    """Frequency in hertz."""

    @classmethod
    def from_ghz(cls, ghz: Number) -> "Hertz":
        return cls(float(ghz) * 1e9)

    @property
    def ghz(self) -> float:
        return self.value / 1e9


class Volts(_Scalar):
    """Electric potential in volts."""


class Amperes(_Scalar):
    """Electric current in amperes."""


def energy(power: Watts, duration: Seconds) -> Joules:
    """Energy = power x time, the paper's §1 definition."""
    return Joules(power.value * duration.value)


def average_power(total: Joules, duration: Seconds) -> Watts:
    """Average power over a run of known energy and duration."""
    if duration.value <= 0.0:
        raise ValueError("duration must be positive to average power")
    return Watts(total.value / duration.value)
