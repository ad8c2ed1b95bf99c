"""Machine configuration: widths, queue sizes, execution-unit table,
bus and MSHR capacities, cache geometry and latencies."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    ``dataclasses.replace``, checks it."""

    fetch_width: int = 4
    dispatch_width: int = 4
    issue_width: int = 4
    retire_width: int = 4
    rob_size: int = 192
    rs_size: int = 40
    eu: dict[str, EuClass] = field(default_factory=default_eu_table)
    cdb_width: int = 4
    l1d_mshrs: int = 4
    branch_resolve_extra: int = 1
    writeback_delay: int = 1
    geometry: CacheGeometry = field(default_factory=CacheGeometry)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in (
            "fetch_width",
            "dispatch_width",
            "issue_width",
            "retire_width",
            "rob_size",
            "rs_size",
            "cdb_width",
            "l1d_mshrs",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("l1_sets", "l1_ways", "llc_sets", "llc_ways", "lat_l1", "lat_llc", "lat_mem"):
            if getattr(self.geometry, name) < 1:
                raise ValueError(f"{name} must be >= 1")
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
        for name, e in self.eu.items():
            if not e.pipelined:
                return name
        raise ValueError("no non-pipelined EU class configured")
