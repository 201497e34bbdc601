"""Declarative scenario grids.

A campaign is a list of *cells*; each cell names a task of the
:mod:`repro.campaign.tasks` table and carries a flat, JSON-able parameter
mapping.  :class:`CampaignGrid` expands the Cartesian product of a set
of axes over a base parameter dict — the declarative way to say
"4 delivery approaches × 3 seeds × 2 source rates"::

    grid = CampaignGrid(
        "comparison.receiver",
        axes={"approach": ["local", "bidir"], "seed": [0, 1, 2]},
        base={"move_link": "L6"},
    )
    cells = grid.cells()          # 6 cells, deterministic order

Cells are value objects: two cells with the same task and parameters
are equal, hash equal, and (by construction) map to the same cache key.
Parameter values must be JSON scalars, lists, or string-keyed dicts so
every cell can be shipped to a worker process, hashed stably, and
cached on disk.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

__all__ = ["CampaignCell", "CampaignGrid", "canonical_params"]


def _check_jsonable(value: Any, path: str) -> None:
    if value is None or isinstance(value, (str, int, float, bool)):
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_jsonable(item, f"{path}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"{path}: dict keys must be strings, got {key!r}")
            _check_jsonable(item, f"{path}.{key}")
        return
    raise TypeError(
        f"{path}: campaign parameters must be JSON-able, got {type(value).__name__}"
    )


def canonical_params(params: Mapping[str, Any]) -> str:
    """Canonical JSON for a parameter mapping: sorted keys, no spaces.

    This string — not the in-memory dict — is what cache keys and
    derived per-cell seeds are computed from, so insertion order of the
    mapping never matters.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CampaignCell:
    """One unit of work: a task name plus its parameters."""

    task: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_jsonable(dict(self.params), self.task)
        # Freeze the mapping so cells are safe to share and hash.
        object.__setattr__(self, "params", dict(self.params))

    def with_params(self, **overrides: Any) -> "CampaignCell":
        return CampaignCell(task=self.task, params={**self.params, **overrides})

    def __hash__(self) -> int:
        return hash((self.task, canonical_params(self.params)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CampaignCell):
            return NotImplemented
        return self.task == other.task and canonical_params(
            self.params
        ) == canonical_params(other.params)


class CampaignGrid:
    """Cartesian product of parameter axes over a base mapping."""

    def __init__(
        self,
        task: str,
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        base: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.task = task
        self.axes: Dict[str, List[Any]] = {
            key: list(values) for key, values in (axes or {}).items()
        }
        for key, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {key!r} has no values")
        self.base: Dict[str, Any] = dict(base or {})
        overlap = set(self.axes) & set(self.base)
        if overlap:
            raise ValueError(f"axes shadow base parameters: {sorted(overlap)}")

    def __len__(self) -> int:
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def __iter__(self) -> Iterator[CampaignCell]:
        return iter(self.cells())

    def cells(self) -> List[CampaignCell]:
        """All cells, in deterministic row-major (axis-insertion) order."""
        names = list(self.axes)
        out: List[CampaignCell] = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            params = dict(self.base)
            params.update(zip(names, combo))
            out.append(CampaignCell(task=self.task, params=params))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = "×".join(str(len(v)) for v in self.axes.values()) or "1"
        return f"<CampaignGrid task={self.task} cells={dims}>"
