"""Map profiled source files to layers and aggregate ``pstats`` by layer.

Layers are named after this repo's modules.  A file is looked up by
its path relative to ``src/repro``: first in :data:`FILES`, then by
its top-level package in :data:`PACKAGES`; any other ``src/repro``
file is ``other`` (and reported, so a new module gets a layer instead
of vanishing), and everything outside ``src/repro`` -- C functions,
the stdlib, the harness itself -- is ``py.builtins``.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Tuple

FILES = {
    "net/mobility.py": "net.mobility",
    "net/node.py": "net.mobility",
    "util/geometry.py": "net.mobility",
    "net/medium.py": "net.medium",
    "net/spatial.py": "net.medium",
    "net/mac.py": "net.mac",
    "net/network.py": "net.network",
    "net/packet.py": "net.network",
    "net/pool.py": "net.network",
    "net/discovery.py": "net.network",
    "net/energy.py": "net.energy",
    "core/embedding.py": "core.embedding",
    "core/routing.py": "core.routing",
    "core/maintenance.py": "core.maintenance",
}

PACKAGES = {
    "sim": "sim",
    "kautz": "kautz",
    "dht": "dht",
    "core": "core.other",
    "baselines": "baselines",
    "wsan": "wsan",
    "qos": "qos",
    "recovery": "recovery",
    "chaos": "chaos",
    "telemetry": "telemetry",
    "experiments": "experiments",
    "util": "util",
}

LAYERS = (
    "sim", "net.mobility", "net.medium", "net.mac", "net.network",
    "net.energy", "kautz", "dht", "core.embedding", "core.routing",
    "core.maintenance", "core.other", "baselines", "wsan", "qos",
    "recovery", "chaos", "telemetry", "experiments", "util",
    "py.builtins", "other",
)

#: Layers that exist whatever files the checkout holds.
_ALWAYS = ("py.builtins", "other")

#: Single functions whose call counts are reported on their own:
#: metric name -> (file relative to src/repro, function name).
COUNTERS = {
    "sim.events": ("sim/core.py", "step"),
    "net.mobility.position_calls": ("net/mobility.py", "position"),
    "net.medium.can_transmit_calls": ("net/medium.py", "can_transmit"),
    "net.medium.neighbor_queries": ("net/medium.py", "neighbors"),
}

#: pstats row: (file, line, function) -> (primitive calls, calls,
#: self seconds, cumulative seconds, callers).
StatsTable = Dict[Tuple[str, int, str], tuple]


def layer_of(relpath: Optional[str]) -> str:
    """The layer of a file given relative to ``src/repro`` (None = outside)."""
    if relpath is None:
        return "py.builtins"
    layer = FILES.get(relpath)
    if layer is None:
        package, _, rest = relpath.partition("/")
        layer = PACKAGES.get(package) if rest else None
    return layer or "other"


def relative_to_root(filename: str, root: pathlib.Path) -> Optional[str]:
    """``filename`` as a posix path under ``root``, or None if outside."""
    try:
        return pathlib.Path(filename).relative_to(root).as_posix()
    except ValueError:
        return None


def source_files(root: pathlib.Path) -> List[str]:
    """Every python file under ``root``, relative, sorted."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py"))


def _defines(root: pathlib.Path, relpath: str, function: str) -> bool:
    path = root / relpath
    return path.is_file() and f"def {function}(" in path.read_text("utf-8")


def aggregate(stats: StatsTable, root: pathlib.Path) -> dict:
    """Fold a ``pstats`` table into per-layer self time and call counts.

    Returns ``{"layers": {layer: {"self_s", "calls"} or None},
    "counters": {name: calls or None}, "total_calls", "unmapped_files"}``.
    A layer none of whose files exist any more, and a counter whose
    function is no longer defined, is ``None``: later PRs may delete
    modules, and that must read as "gone", not as "never called".
    """
    present = {layer_of(rel) for rel in source_files(root)} | set(_ALWAYS)
    layers: Dict[str, Optional[dict]] = {
        layer: {"self_s": 0.0, "calls": 0} if layer in present else None
        for layer in LAYERS
    }
    counters: Dict[str, Optional[int]] = {
        name: 0 if _defines(root, rel, function) else None
        for name, (rel, function) in COUNTERS.items()
    }
    by_function = {target: name for name, target in COUNTERS.items()}
    unmapped = set()
    total_calls = 0
    for (filename, _line, function), row in stats.items():
        calls, self_s = row[1], row[2]
        rel = relative_to_root(filename, root)
        layer = layer_of(rel)
        if layer == "other":
            unmapped.add(rel)
        bucket = layers[layer]
        bucket["self_s"] += self_s
        bucket["calls"] += calls
        total_calls += calls
        name = by_function.get((rel, function))
        if name is not None:
            counters[name] += calls
    return {
        "layers": layers,
        "counters": counters,
        "total_calls": total_calls,
        "unmapped_files": sorted(unmapped),
    }

