import numbers


class ConfigError(ValueError):
    """Invalid or out-of-range configuration value."""


def check(*rules: tuple[bool, str]) -> None:
    """Raise one ConfigError listing the message of every ``(ok, message)`` rule that failed."""
    failed = [message for ok, message in rules if not ok]
    if failed:
        raise ConfigError("; ".join(failed))


def count_rule(name: str, value, least: int, message: str | None = None) -> tuple[bool, str]:
    """``value`` must be an integer of at least ``least``; a rule for ``check``.

    A ``bool``, or anything that is not ``numbers.Integral``, fails before it is
    compared, with ``"<name> must be an integer"``; numpy integers pass.  Out of
    range, the message is ``message``, or ``"<name> must be >= <least>"``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return False, f"{name} must be an integer, got {value!r}"
    return value >= least, message or f"{name} must be >= {least}, got {value}"
