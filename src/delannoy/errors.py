"""Exceptions shared across the package, and ``agree``, the one comparison of routes."""

from __future__ import annotations

from typing import Any, Callable, Mapping


class ConsistencyError(RuntimeError):
    """Two routes that must agree (formula vs formula, formula vs table) disagreed.

    This is never a user error: it means an internal cross-check failed and the
    computed numbers cannot be trusted.
    """


def _show(value: Any) -> str:
    """str(value), or for an int too long for str (past sys.get_int_max_str_digits(),
    Python 3.11+), its size in bits, also inside a tuple: a disagreement is always reported."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, tuple):
            return f"({', '.join(map(_show, value))})"
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"


def agree(what: str, routes: Mapping[str, Any], index: Callable[[int], str] = "[{}]".format) -> Any:
    """The value that every route gave (routes: route name -> value), or else ConsistencyError
    "<what>: v1 != v2 ... (route1, route2 ... disagree)".  A list is a sequence: the message
    names its first differing position as ``index`` does in the sequence's own terms (say
    "x^{}".format), and "(missing)" for a list that ends there, so unequal lengths disagree."""
    values = list(routes.values())
    if values.count(values[0]) == len(values):
        return values[0]
    if isinstance(values[0], list):
        i = next(i for i in range(max(map(len, values)))
                 if any(v[i:i + 1] != values[0][i:i + 1] for v in values))
        what, values = f"{what} at {index(i)}", [v[i] if i < len(v) else "(missing)" for v in values]
    raise ConsistencyError(f"{what}: {' != '.join(map(_show, values))} ({', '.join(routes)} disagree)")
