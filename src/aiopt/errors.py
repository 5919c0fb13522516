class ConfigError(ValueError):
    """Invalid or out-of-range configuration value."""


def check(*rules: tuple[bool, str]) -> None:
    """Raise one ConfigError listing the message of every ``(ok, message)`` rule that failed."""
    failed = [message for ok, message in rules if not ok]
    if failed:
        raise ConfigError("; ".join(failed))
