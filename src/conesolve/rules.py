"""Input rules stated once: the module that reads a setting holds its rule in a
table {name: (predicate, phrase)}, checks it with ``require``, and the config
reports the same message, prefixed by the setting's section."""


def require(rules: dict, name: str, value, shown=None) -> None:
    """Raise ValueError "<name> <phrase>, got <shown>" if ``value`` breaks ``rules[name]``;
    ``shown`` is the value as written, where that differs (a config line), else ``value``."""
    holds, phrase = rules[name]
    if not holds(value):
        raise ValueError(f"{name} {phrase}, got {value if shown is None else shown!r}")
