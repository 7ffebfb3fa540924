"""The number rules, each defined once: constructors and file readers call them with their own label and error."""

import numbers
import sys
from typing import Any


def is_int(value: Any) -> bool:
    """A count of the engine: a Python or numpy integer, never a bool (True is data, not a count).

    No numpy integer exists before numpy is imported, so the rule tests for one only after that, and the
    host models, which never import numpy, do not load it for this rule.
    """
    return (isinstance(value, int) or "numpy" in sys.modules and isinstance(value, sys.modules["numpy"].integer)) \
        and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def whole(label: str, value: Any, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int, if it is a number without a fractional part; a plain int skips the costlier ABC checks."""
    if type(value) is not int and not (
            is_number(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise error(f"{label} must be a whole number, got {value!r}")
    return int(value)


def real(label: str, value: Any, error: type[ValueError] = ValueError) -> float:
    """``value`` as a float, if it is a number within float range; a plain int or float skips the ABC checks."""
    if type(value) is not int and type(value) is not float and not is_number(value):
        raise error(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer past float range
        raise error(f"{label} must be within float range, got {value!r}") from None
