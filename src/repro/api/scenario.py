"""Scenarios: declarative, serializable experiment parameterisations.

A :class:`Scenario` names a registered experiment, a set of parameter
overrides, and optional sweep axes that expand into families of
concrete scenarios (the cartesian product of the axes). Scenarios are
plain data -- they serialise to JSON through :mod:`repro.io` -- so a
run plan can be written by hand, published next to results, and
re-executed exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError


@dataclass(frozen=True)
class Scenario:
    """One experiment id plus its parameterisation.

    Attributes
    ----------
    experiment_id:
        A registered experiment id (``"fig6"``, ``"abl-temp"``, ...).
    overrides:
        Parameter overrides passed to the experiment's ``run``.
    sweep:
        Sweep axes: parameter name -> sequence of values. A scenario
        with sweep axes is a *family*; :meth:`expand` produces one
        concrete scenario per point of the cartesian product.
    label:
        Optional human-readable tag carried into results and exports.
    """

    experiment_id: str
    overrides: "Mapping[str, Any]" = field(default_factory=dict)
    sweep: "Mapping[str, Sequence[Any]]" = field(default_factory=dict)
    label: "str | None" = None

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ConfigurationError("scenario needs an experiment id")
        # Normalise list-valued overrides (the JSON form) to tuples so a
        # scenario equals its save/load round trip.
        object.__setattr__(
            self,
            "overrides",
            {
                k: tuple(v) if isinstance(v, list) else v
                for k, v in dict(self.overrides).items()
            },
        )
        object.__setattr__(
            self, "sweep", {k: tuple(v) for k, v in dict(self.sweep).items()}
        )
        for axis, values in self.sweep.items():
            if len(values) == 0:
                raise ConfigurationError(f"sweep axis {axis!r} is empty")
            if axis in self.overrides:
                raise ConfigurationError(
                    f"parameter {axis!r} appears in both overrides and sweep"
                )

    @property
    def name(self) -> str:
        """Display name: the label, or an id + overrides summary."""
        if self.label:
            return self.label
        if not self.overrides:
            return self.experiment_id
        summary = ",".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))
        return f"{self.experiment_id}[{summary}]"

    def expand(self) -> "tuple[Scenario, ...]":
        """Concrete scenarios: one per cartesian-product sweep point.

        A scenario without sweep axes expands to itself. Expanded
        scenarios fold each sweep point into ``overrides`` and suffix
        the label with the swept values.
        """
        if not self.sweep:
            return (self,)
        axes = sorted(self.sweep)
        expanded = []
        for values in itertools.product(*(self.sweep[a] for a in axes)):
            point = dict(zip(axes, values))
            tag = ",".join(f"{k}={v}" for k, v in point.items())
            base = self.label or self.experiment_id
            expanded.append(
                Scenario(
                    experiment_id=self.experiment_id,
                    overrides={**self.overrides, **point},
                    label=f"{base}({tag})",
                )
            )
        return tuple(expanded)

    # ----- JSON round trip (via repro.io) --------------------------------

    def to_dict(self) -> "dict[str, Any]":
        """JSON-safe record; inverse of :meth:`from_dict`."""
        from .. import io

        return io.to_record(self)

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any]") -> "Scenario":
        """Rebuild a scenario from its JSON record."""
        from .. import io

        return io.from_record(cls, data)

    def save(self, path: "str | Path") -> Path:
        """Write the scenario as a JSON file; returns the path."""
        from .. import io

        return io.save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: "str | Path") -> "Scenario":
        """Read a scenario back from a JSON file."""
        from .. import io

        return io.from_record(cls, io.load_json(path))
