import numbers
import sys

# What the CLI and the scripts report as one ``error:`` line; a ConfigError is a ValueError.
USER_ERRORS = (ValueError, OSError, MemoryError)


class ConfigError(ValueError):
    """Invalid or out-of-range configuration value."""


def check(*rules: tuple[bool, str]) -> None:
    """Raise one ConfigError listing the message of every ``(ok, message)`` rule that failed."""
    failed = [message for ok, message in rules if not ok]
    if failed:
        raise ConfigError("; ".join(failed))


def shown(value, text=str) -> str:
    """``text(value)``, or a short description of a number too long for Python to print."""
    try:
        return text(value)
    except ValueError:  # more than sys.get_int_max_str_digits() digits
        limit = sys.get_int_max_str_digits()
        if not isinstance(value, numbers.Real):  # a container that holds such a number
            return f"a {type(value).__name__} holding a number of more than {limit} digits"
        sign = "a negative" if value < 0 else "a"
        return f"{sign} number of more than {limit} digits"


def count_rule(name: str, value, least: int) -> tuple[bool, str]:
    """``value`` must be an integer ``>= least``; a rule for ``check``.  A ``bool`` or any
    non-``numbers.Integral`` fails first, with ``"<name> must be an integer"``; numpy ints pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return False, f"{name} must be an integer, got {shown(value, repr)}"
    return number_rule(name, value, least)


def number_rule(name: str, value, least, most=None, above: bool = False) -> tuple[bool, str]:
    """``value`` must be a number ``> least`` if ``above``, else ``>= least``, and ``<= most``
    if given; a rule for ``check``.  A ``bool`` or anything not ``numbers.Real`` fails first,
    with ``"<name> must be a number"``; numpy scalars and ``Fraction``s pass.  NaN fails."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False, f"{name} must be a number, got {shown(value, repr)}"
    if (value > least if above else value >= least) and (most is None or value <= most):
        return True, ""  # most rules pass: format no message for them
    bounds = f"{'>' if above else '>='} {least}" + ("" if most is None else f" and <= {most}")
    return False, f"{name} must be {bounds}, got {shown(value)}"
