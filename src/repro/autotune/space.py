"""Tuning parameter spaces (the paper's Table III feature space)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Parameter:
    """One tunable dimension: a name plus its finite value list."""

    name: str
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"parameter {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"parameter {self.name!r} has duplicate values")

    def __len__(self) -> int:
        return len(self.values)

    def index_of(self, value) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ValueError(
                f"{value!r} is not a value of parameter {self.name!r}"
            ) from None


class ParameterSpace:
    """The cartesian product of tuning parameters.

    Configurations are plain dicts ``{name: value}``; the space also
    supports coordinate views (tuples of value indices) used by the lattice
    searches (simulated annealing, Nelder-Mead).
    """

    def __init__(self, parameters: Sequence[Parameter]):
        if not parameters:
            raise ValueError("empty parameter space")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.parameters: tuple = tuple(parameters)
        self.by_name = {p.name: p for p in self.parameters}

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        n = 1
        for p in self.parameters:
            n *= len(p)
        return n

    def __iter__(self) -> Iterator[dict]:
        names = [p.name for p in self.parameters]
        for combo in itertools.product(*(p.values for p in self.parameters)):
            yield dict(zip(names, combo))

    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def shape(self) -> tuple:
        return tuple(len(p) for p in self.parameters)

    # -- coordinates ---------------------------------------------------------

    def config_at(self, coords: Sequence[int]) -> dict:
        if len(coords) != len(self.parameters):
            raise ValueError("coordinate arity mismatch")
        return {
            p.name: p.values[c % len(p)]
            for p, c in zip(self.parameters, coords)
        }

    def coords_of(self, config: dict) -> tuple:
        return tuple(
            p.index_of(config[p.name]) for p in self.parameters
        )

    def clip(self, coords: Sequence[int]) -> tuple:
        return tuple(
            min(max(int(c), 0), len(p) - 1)
            for p, c in zip(self.parameters, coords)
        )

    def random_config(self, rng) -> dict:
        return {
            p.name: p.values[int(rng.integers(len(p)))]
            for p in self.parameters
        }

    # -- restriction (what the static search module does) -------------------

    def restrict(self, name: str, allowed) -> "ParameterSpace":
        """A new space with parameter ``name`` limited to ``allowed`` values
        (order preserved; values absent from the parameter are ignored)."""
        if name not in self.by_name:
            raise KeyError(f"no parameter named {name!r}")
        allowed_set = set(allowed)
        newvals = tuple(
            v for v in self.by_name[name].values if v in allowed_set
        )
        if not newvals:
            raise ValueError(
                f"restriction removes every value of {name!r}"
            )
        return ParameterSpace([
            Parameter(p.name, newvals) if p.name == name else p
            for p in self.parameters
        ])

    def validate_config(self, config: dict) -> None:
        for p in self.parameters:
            if p.name not in config:
                raise ValueError(f"config missing parameter {p.name!r}")
            if config[p.name] not in p.values:
                raise ValueError(
                    f"config value {config[p.name]!r} not allowed for "
                    f"{p.name!r}"
                )

