"""fddilab: quantitative machinery of the FDDI standards family.

Subpackages cover the timed-token MAC simulator (mac_sim), FDDI-II
hybrid-mode cycles (fddi2), physical-layer line codes (phy_codec), the
SONET scrambler and its interference analyzer (scrambler), SONET rate
hierarchy and payload mapping (spm), and mixed-media link budgets
(link_planner). The ``fddilab`` command exposes all of them.
"""

from __future__ import annotations

from typing import NamedTuple

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


class Violation(NamedTuple):
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
    ``parse`` (e.g. json.loads) rejects, is an InputError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh.read())
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


def number(value, to, field: str, tag: str, path: str | None = None):
    """``to(value)`` for one field of an input (``to`` is e.g. float, whole
    or exact); a boolean, text for float or whole (``"4"``; exact reads
    ``"1000/7"``), or a value ``to`` rejects is an InputError naming it."""
    try:
        if isinstance(value, bool) or isinstance(value, str) and to in (float, whole):
            raise TypeError("not a number")
        return to(value)
    except (TypeError, ValueError, ArithmeticError):
        need = "a whole number" if to in (whole, int) else "a number"
        raise InputError(f"{field}: need {need}, got {shown(value)}", tag, path) from None
