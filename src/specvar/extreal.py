"""Extended real values restricted to finite numbers and +infinity.

Second-order objects in this package take the value +infinity off their
effective domain, and never -infinity.  Wrapping the value (instead of
passing bare floats around) keeps NaN out of downstream arithmetic: the
only operations allowed to touch the infinite branch are finite + inf and
positive-scalar * inf, and both are checked.
"""
from __future__ import annotations

import math

from .record import Record


class ExtReal(Record):
    """A real number extended with +infinity (no NaN, no -infinity)."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        v = float(value)
        if math.isnan(v):
            raise ValueError("ExtReal does not admit NaN")
        if v == -math.inf:
            raise ValueError("ExtReal does not admit -infinity")
        self._init(v)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    @property
    def tag(self) -> str:
        return "finite" if self.is_finite else "pos_inf"

    def __add__(self, other) -> "ExtReal":
        other = other if isinstance(other, ExtReal) else ExtReal(float(other))
        return ExtReal(self.value + other.value)

    __radd__ = __add__

    def __mul__(self, scalar) -> "ExtReal":
        s = float(scalar)
        if not self.is_finite and s <= 0.0:
            raise ValueError("only positive scalars may multiply +infinity")
        return ExtReal(s * self.value)

    __rmul__ = __mul__

    def _other_value(self, other) -> float:
        return other.value if isinstance(other, ExtReal) else float(other)

    def __eq__(self, other) -> bool:
        try:
            return self.value == self._other_value(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __lt__(self, other) -> bool:
        return self.value < self._other_value(other)

    def __le__(self, other) -> bool:
        return self.value <= self._other_value(other)

    def __gt__(self, other) -> bool:
        return self.value > self._other_value(other)

    def __ge__(self, other) -> bool:
        return self.value >= self._other_value(other)

    def __float__(self) -> float:
        return self.value

    def to_json(self):
        """JSON payload: the number itself, or the string "+inf"."""
        return self.value if self.is_finite else "+inf"

    def __repr__(self) -> str:
        return "ExtReal(+inf)" if not self.is_finite else f"ExtReal({self.value!r})"


POS_INF = ExtReal(math.inf)
