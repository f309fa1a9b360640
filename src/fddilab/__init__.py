"""fddilab: quantitative machinery of the FDDI standards family.

Subpackages cover the timed-token MAC simulator (mac_sim), FDDI-II
hybrid-mode cycles (fddi2), physical-layer line codes (phy_codec), the
SONET scrambler and its interference analyzer (scrambler), SONET rate
hierarchy and payload mapping (spm), and mixed-media link budgets
(link_planner). The ``fddilab`` command exposes all of them.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

__version__ = "0.1.0"


class InputError(ValueError):
    """Malformed or out-of-range input from outside the program: ``tag``
    names the reason, ``path`` the input file where it is known, and the
    message the offending field. The CLI reports it as one line,
    ``error: <tag>: <message>``, and exit 1. Library errors the CLI
    reports subclass it with their own tag."""

    tag = "bad-input"

    def __init__(self, message: str, tag: str | None = None, path: str | None = None):
        super().__init__(message)
        self.tag = tag or self.tag
        self.path = path


# what a record's class body holds that its namedtuple keeps of its own
_NOT_COPIED = frozenset({"__dict__", "__weakref__", "__annotations__", "__module__"})


def record(cls):
    """The namedtuple of ``cls``'s annotated fields, in order, with the
    rest of its class body (docstring, methods, properties) copied on; a
    field given a value has it as its default. That is the class
    ``typing.NamedTuple`` makes, but the annotations, strings here, are
    never read: no ``typing``, and no ``compile()`` per field."""
    body = vars(cls)
    names = tuple(body.get("__annotations__", ()))
    given = [name for name in names if name in body]
    if names[len(names) - len(given):] != tuple(given):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    made = namedtuple(cls.__name__, names, defaults=[body[name] for name in given],
                      module=cls.__module__)
    made.__qualname__ = cls.__qualname__
    for key, value in body.items():   # no docstring keeps namedtuple's "Name(field, ...)"
        if key not in _NOT_COPIED and key not in names and (key != "__doc__" or value):
            setattr(made, key, value)
    return made


@record
class Violation:
    """A broken rule and the values that break it: one report row."""

    rule: str
    detail: str


def exact(value):
    """A quantity as an exact Fraction: a float via its decimal text."""
    import fractions   # not at start-up; a from-import would cost ~1.5 us more a call
    if isinstance(value, fractions.Fraction):  # as it is: a copy would cost a Rational check
        return value
    return fractions.Fraction(str(value) if isinstance(value, float) else value)


def read_input(path: str, tag: str, parse=str):
    """``parse`` of an input file's text. Text that is not UTF-8, or that
    ``parse`` (e.g. json.loads) rejects, is an InputError naming the file;
    an InputError that ``parse`` raises gets the file as its ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except InputError as exc:   # worded already: keep its message
            exc.path = path
            raise
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}: {exc}", tag, path) from None


def whole(value) -> int:
    """``int(value)`` for a whole number: 4 and 4.0 read as 4, and 4.5 is
    a ValueError rather than 4."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def shown(value) -> str:
    """``repr(value)`` for an error message, its middle cut out past 40
    characters: a 401-digit int shows its ends and its length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:16]}...{text[-8:]} ({len(text)} chars)"


# --- the field reader of the input files ----------------------------------
# A field's kind is the function that reads it: whole (a count), float (a
# finite number: a length, loss or rate), exact (microseconds, "1000/7"
# too), bool (a flag), str (a name), or a function of text such as int. A
# value of the kind's own class is taken as it is; no boolean reads as any
# other kind, and no text as a count or a number.
_PLAIN = {whole: int, float: float, bool: bool, str: str}
_NEED = {whole: "need a whole number", int: "need a whole number", bool: "need true or false",
         str: "need a name"}   # else "need a number"


class Field:
    """One field of an input file, declared once. ``path`` names it in a
    refusal, ``{}`` standing for its entry, and ends in its JSON key; a
    missing key reads as ``default``, a value in ``nulls`` as None. ``low``
    (excluded where ``above``) and ``high`` bound a number, ``unit`` names
    what ``high`` counts, and with ``many`` it is a list of numbers."""

    __slots__ = ("path", "key", "kind", "plain", "default", "nulls", "low", "high", "unit",
                 "above", "many", "lo", "hi")

    def __init__(self, path: str, kind, default=None, *, low=None, high=None, unit="",
                 above=False, nulls=(), many=False):
        self.path, self.kind, self.default, self.nulls = path, kind, default, nulls
        self.key, self.plain = path.rpartition(".")[2], _PLAIN.get(kind)
        self.low, self.high, self.unit, self.above, self.many = low, high, unit, above, many
        # lo <= value <= hi for a value taken as it is: a name, a flag, or a
        # number in bounds, finite where it is no count
        self.lo, self.hi = {str: ("", "\U0010ffff"), bool: (False, True)}.get(kind, (
            -math.inf if low is None else math.nextafter(low, math.inf) if above else low,
            min(math.inf if high is None else high,
                math.inf if kind is whole else sys.float_info.max)))


def read(doc: dict, declared: tuple, tag: str, at=None, path: str | None = None) -> list:
    """The value of each ``declared`` field of one JSON object, in order: a
    value taken as it is, a null as None, and any other as ``read_one``."""
    out = []
    for f in declared:
        value = doc.get(f.key, f.default)
        if value.__class__ is not f.plain or not f.lo <= value <= f.hi:
            value = None if value in f.nulls else read_one(value, f, tag, at, path)
        out.append(value)
    return out


def read_one(value, field: Field, tag: str, at=None, path: str | None = None):
    """``value`` as ``field`` reads it, else an InputError tagged ``tag``
    that names the field (``at`` fills its ``{}``): ``traffic[2].frame_bytes:
    need a whole number >= 1, got 0``. Text that reads as a number out of
    bounds (``"nan"``, ``"-0.5"``) is refused by the bound it breaks."""
    # the value, or each item of a list; what is no list is no list of numbers
    for item in (value if value.__class__ is list else [None]) if field.many else [value]:
        number = _read(item, field)
        if number is None and field.many:
            raise InputError(f"{field.path.format(at)}: need a list of numbers", tag, path)
        if number is None:
            words = _NEED.get(field.kind, "need a number")
            if item.__class__ is str:
                try:
                    words = _outside(field, float(item)) or words
                except ValueError:   # no number
                    pass
        elif words := _outside(field, number):   # a count shows as its int
            item = number if field.kind is whole else item
        if words:
            raise InputError(f"{field.path.format(at)}: {words}, got {shown(item)}", tag, path)
    return value if field.many else number


def _read(value, field: Field):
    """``value`` as the field's kind reads it, or None where it cannot."""
    kind = field.kind
    if value.__class__ is field.plain:
        return value
    if kind in (bool, str) or value.__class__ is bool or (
            value.__class__ is str and kind in (whole, float)):
        return None
    try:
        return kind(value)
    except (TypeError, ValueError, ArithmeticError):
        return None


def _outside(field: Field, number) -> str:
    """The words of the bound a count or number breaks, or "" if it breaks none."""
    if field.kind is float and not field.lo <= number <= field.hi:   # NaN breaks them too
        return f"need a finite number {'>' if field.above else '>='} {field.low}"
    if field.kind is whole and number < field.lo:
        return f"need a whole number >= {field.low}"
    if field.kind is whole and number > field.hi:
        return f"need at most {field.high} {field.unit}"
    return ""
