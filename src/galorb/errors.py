"""Exception hierarchy shared by all modules, and the one reader of
numerals and JSON objects in files and arguments.

The command line maps these onto exit codes: InputError -> 2,
UncertifiedError -> 3, ResourceLimitError -> 4.
"""

import json
from fractions import Fraction


class GalorbError(Exception):
    """Base class for errors raised by this package."""


class InputError(GalorbError):
    """Invalid input data: files, arguments, or inconsistent tables."""


class ResourceLimitError(GalorbError):
    """A guard on the work an input asks for was exceeded, such as the
    group order, element-points, a matrix dimension or the screen box."""


class UncertifiedError(GalorbError):
    """charpoly file's seeded search found no element of the target order.
    (An uncertified screen is a result: screen exits 3 without raising.)"""


# Python's default bound on int(str), and on exponents: Fraction("1e9999999") builds 10**9999999
MAX_DIGITS = 4300


def read_integer(text: str, signed: bool = True) -> int | None:
    """An integer numeral's value: an optional sign (if signed), then ASCII digits;
    None for other text, such as int's "1_0" or " 5", so the caller words the refusal."""
    digits = text[signed and text[:1] in "+-":]
    if not (digits.isascii() and digits.isdigit()):
        return None
    if len(digits) > MAX_DIGITS:
        raise InputError(f"a numeral of {len(digits)} digits; at most {MAX_DIGITS} are read")
    return int(text)


def read_rational(x: str | int) -> int | Fraction:
    """A JSON integer, or a rational numeral's value: an int for an integer
    numeral, else what Fraction reads ("-1/2", "1.5", "1E-2"), in plain ASCII."""
    if type(x) is int:
        return x
    if not x.isascii() or "_" in x or x != x.strip():
        raise InputError(f"{x!r} is not a plain ASCII numeral")
    if (value := read_integer(x)) is not None:
        return value
    if abs(read_integer(x.lower().partition("e")[2]) or 0) > MAX_DIGITS:
        raise InputError(f"an exponent past {MAX_DIGITS} is not read")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from None


def _object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InputError(f"repeated key {key!r}")
    return obj


def read_json_object(text: str, what: str) -> dict:
    """The JSON object in text; no object repeats a key; integers by read_integer."""
    try:
        obj = json.loads(text, object_pairs_hook=_object, parse_int=read_integer)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what}: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError(f"{what} must hold a JSON object")
    return obj
