"""The rule for which dataclass fields a config file or a grid search may set."""

from __future__ import annotations

from dataclasses import fields


def config_fields(cls) -> dict:
    """{name: type} of the fields of dataclass cls that a config or a grid may
    set: those typed float, int or str, or a list of one such as list[float],
    optionally ``| None``."""
    kinds = {f.name: f.type.split(" | ")[0] for f in fields(cls)}
    return {name: kind for name, kind in kinds.items()
            if kind.removeprefix("list[").removesuffix("]") in ("float", "int", "str")}
