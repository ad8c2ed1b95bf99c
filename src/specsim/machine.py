"""Machine configuration: widths, queue sizes, execution-unit table,
bus and MSHR capacities, cache geometry and latencies."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

from .memhier import CacheGeometry


@dataclass(frozen=True)
class EuClass:
    pipelined: bool
    latency: int
    count: int


def default_eu_table() -> dict[str, EuClass]:
    return {
        "alu": EuClass(pipelined=True, latency=1, count=4),
        "npeu": EuClass(pipelined=False, latency=16, count=1),
        "lsu": EuClass(pipelined=True, latency=1, count=2),
    }


@dataclass(frozen=True)
class MachineConfig:
    """Valid by construction: building one, or deriving one with
    ``dataclasses.replace``, checks it. Every int field is at least 1, or
    at least the ``min`` declared beside it. ``eu`` is a read-only copy of
    the table it was built from, so the check holds for the config's life."""

    fetch_width: int = 4
    dispatch_width: int = 4
    issue_width: int = 4
    retire_width: int = 4
    rob_size: int = 192
    rs_size: int = 40
    eu: Mapping[str, EuClass] = field(default_factory=default_eu_table)
    cdb_width: int = 4
    l1d_mshrs: int = 4
    branch_resolve_extra: int = field(default=1, metadata={"min": 0})
    writeback_delay: int = field(default=1, metadata={"min": 0})
    geometry: CacheGeometry = field(default_factory=CacheGeometry)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eu", MappingProxyType(dict(self.eu)))
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            low = f.metadata.get("min", 1)
            if f.type == "int" and getattr(self, f.name) < low:
                raise ValueError(f"{f.name} must be >= {low}")
        nonpipe = [n for n, e in self.eu.items() if not e.pipelined]
        if len(nonpipe) != 1:
            raise ValueError("exactly one EU class must be non-pipelined")
        npeu = self.eu[nonpipe[0]]
        if npeu.latency < 2:
            raise ValueError("the non-pipelined EU class needs latency >= 2")
        for name, e in self.eu.items():
            if e.latency < 1 or e.count < 1:
                raise ValueError(f"eu class {name} has invalid latency/count")

    @property
    def npeu_class(self) -> str:
        return next(name for name, e in self.eu.items() if not e.pipelined)
