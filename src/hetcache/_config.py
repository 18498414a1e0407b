"""``ConfigError``, ``AUTO``, and the field check every config record runs.

Each config record runs ``check_fields`` first in ``__post_init__``, or as
it. A field's annotation says what it accepts: ``float`` a real number other
than a bool, stored as float; ``int`` an integer or an integral float, not a
bool; ``float | str`` also the string ``"auto"``; ``str`` a string; a record
class an instance of it; ``tuple[C, ...]`` a sequence of ``C``, stored as a
tuple. ``Annotated[kind, (lo, hi, reason)]`` declares the field's range too:
the value, unless ``"auto"``, must satisfy ``lo <= value <= hi``, an open end
written as its ``math.nextafter`` so that NaN fails too. Fields are checked
in declaration order, each by type then range, before the record's
orderings. A rejection raises ``ConfigError`` with the field name as its path.
"""
from __future__ import annotations

import functools
import math
import numbers
import typing
from typing import Annotated

AUTO = "auto"

_TINY = math.nextafter(0.0, 1.0)
_HUGE = math.nextafter(math.inf, 0.0)
Positive = Annotated[float, (_TINY, _HUGE, "must be finite and positive")]
Nonnegative = Annotated[float, (0.0, _HUGE, "must be finite and nonnegative")]
PositiveOrAuto = Annotated[float | str, (_TINY, _HUGE, "must be finite and positive, or 'auto'")]
PositiveInt = Annotated[int, (1, math.inf, "must be a positive integer")]
NonnegativeInt = Annotated[int, (0, math.inf, "must be a nonnegative integer")]


class ConfigError(ValueError):
    """Config rejected; ``path`` locates the offending field.

    An empty path names the record that raised it, for a check across
    fields that cannot tell which of them was set.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path = path
        self.reason = reason


def _float(name, value, reason="expected a number"):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(name, reason)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(name, "number out of range") from None


def _int(name, value):
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigError(name, "expected an integer value")


def _float_or_auto(name, value):
    if isinstance(value, str) and value == AUTO:
        return AUTO
    return _float(name, value, "expected a number or 'auto'")


def _str(name, value):
    if not isinstance(value, str):
        raise ConfigError(name, "expected a string")
    return value


def _checker(kind):
    """``(name, value) -> stored value`` for one resolved annotation."""
    simple = {float: _float, int: _int, str: _str, float | str: _float_or_auto}
    if kind in simple:
        return simple[kind]
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]

        def check_tuple(name, value):
            if isinstance(value, (tuple, list)):
                for v in value:
                    if not isinstance(v, item):
                        break
                else:
                    return tuple(value)
            raise ConfigError(name, f"expected a sequence of {item.__name__}")
        return check_tuple

    def check_record(name, value):
        if not isinstance(value, kind):
            raise ConfigError(name, f"expected a {kind.__name__}")
        return value
    return check_record


@functools.cache
def _field_table(cls):
    """Per field of ``cls``, in declaration order: its name, the one type it
    may skip the type check with (None for tuples, whose items are always
    checked), its check, and its range ``(lo, hi, reason)`` or None."""
    table = []
    for name, kind in typing.get_type_hints(cls, include_extras=True).items():
        limits = None
        if typing.get_origin(kind) is Annotated:
            kind, limits = typing.get_args(kind)
        table.append((name, None if typing.get_origin(kind) is tuple
                      else {float | str: float}.get(kind, kind), _checker(kind), limits))
    return tuple(table)


def _checked(name, value, exact, check, limits):
    """Field ``name``'s ``value`` in its normal form, checked by type, then range."""
    value = value if type(value) is exact else check(name, value)
    if limits and value is not AUTO and not limits[0] <= value <= limits[1]:
        raise ConfigError(name, limits[2])
    return value


def check_fields(record) -> None:
    """Check every field of ``record`` by its annotation, storing the normal form."""
    for name, exact, check, limits in _field_table(type(record)):
        value = getattr(record, name)
        if (stored := _checked(name, value, exact, check, limits)) is not value:
            object.__setattr__(record, name, stored)
