"""The one reader of input numerals and JSON objects."""

from fractions import Fraction

import pytest

from galorb.errors import MAX_DIGITS, InputError, read_integer, read_json_object, read_rational


@pytest.mark.parametrize("text, signed, value", [
    ("0", True, 0), ("-0", True, 0), ("+5", True, 5), ("007", True, 7), ("-12", True, -12),
    ("12", False, 12), ("+12", False, None), ("-1", False, None), ("", True, None),
    ("+", True, None), ("1_0", True, None), (" 5", True, None), ("5 ", True, None),
    ("\u0665", True, None), ("\u00b2", True, None), ("1.0", True, None), ("0x10", True, None),
    ("9" * MAX_DIGITS, True, 10 ** MAX_DIGITS - 1),
])
def test_read_integer(text, signed, value):
    assert read_integer(text, signed=signed) == value


def test_read_integer_refuses_past_the_digit_bound():
    for text in ("1" * (MAX_DIGITS + 1), "-" + "0" * (MAX_DIGITS + 1)):
        with pytest.raises(InputError, match=f"of {MAX_DIGITS + 1} digits; at most {MAX_DIGITS}"):
            read_integer(text)


@pytest.mark.parametrize("text, value", [
    ("-7", -7), (3, 3), ("-1/2", Fraction(-1, 2)), ("1.5", Fraction(3, 2)),
    ("1e3", Fraction(1000)), ("1E-2", Fraction(1, 100)),
    (f"1e{MAX_DIGITS}", Fraction(10 ** MAX_DIGITS)),
])
def test_read_rational(text, value):
    # integer numerals are read as ints, the rest as Fractions
    got = read_rational(text)
    assert (type(got), got) == (type(value), value)


@pytest.mark.parametrize("text, message", [
    ("1_0", "'1_0' is not a plain ASCII numeral"),
    (" 1", "' 1' is not a plain ASCII numeral"),
    ("\u0661", "'\u0661' is not a plain ASCII numeral"),
    ("abc", "Invalid literal for Fraction: 'abc'"),
    ("1/0", "Fraction(1, 0)"),
    (f"1e{MAX_DIGITS + 1}", f"an exponent past {MAX_DIGITS} is not read"),
    (f"1e-{MAX_DIGITS + 1}", f"an exponent past {MAX_DIGITS} is not read"),
])
def test_read_rational_refusals(text, message):
    with pytest.raises(InputError) as exc:
        read_rational(text)
    assert str(exc.value) == message


def test_read_json_object():
    assert read_json_object('{"a": [1, {"b": -2}], "c": "3"}', "file") == {
        "a": [1, {"b": -2}], "c": "3"}
    for text, message in [
        ('{"a": 1,\n "a": 1}', "repeated key 'a'"),
        ('{"a": {"b": 1, "c": 2, "b": 3}}', "repeated key 'b'"),
        ("{\n  nope", "line 2: Expecting property name enclosed in double quotes"),
        ("[1]", "file must hold a JSON object"),
        ('{"a": ' + "1" * (MAX_DIGITS + 1) + "}", f"a numeral of {MAX_DIGITS + 1} digits"),
        ("[" * 100000, "file: maximum recursion depth exceeded"),
    ]:
        with pytest.raises(InputError) as exc:
            read_json_object(text, "file")
        assert str(exc.value).startswith(message), text[:20]
