"""The text layouts every report shares: one value, `key: value` lines and
padded key/value tables.  A float is written at 12 significant digits."""


def fmt(value) -> str:
    """A float at 12 significant digits, a bool in lower case, anything else by str()."""
    if isinstance(value, bool):  # before any number check: True is an int
        return "true" if value else "false"
    return format(value, ".12g") if isinstance(value, float) else str(value)


def key_lines(pairs: dict, prefix: str = "") -> str:
    """One `<prefix><key>: <value>` line per pair, each value by fmt."""
    return "".join(f"{prefix}{key}: {fmt(value)}\n" for key, value in pairs.items())


def format_table(pairs: dict, label: str = "") -> str:
    """Key/value text table: an optional label line, then each key padded to the
    longest key, two spaces and its value by fmt."""
    width = max(map(len, pairs))
    lines = [label] if label else []
    lines += [f"{key:<{width}}  {fmt(value)}" for key, value in pairs.items()]
    return "\n".join(lines) + "\n"
