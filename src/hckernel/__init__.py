"""Twin-class kernelization toolkit for H-coloring instances.

Shrinks coloring/homomorphism instances by deleting edges whose constraint
rows are GF(2)-redundant and vertices that become isolated, with the
kernel size bounded by a polynomial in the twin-cover number of the input.
Also ships exact desk-scale oracles and a hard-instance composer for plain
3-coloring.

The composer and the oracles load on first use of one of their names
(PEP 562), so a process that only kernelizes never imports them.
"""

from importlib import import_module as _import_module

from .constraints import build_coloring_polynomial, evaluate
from .gf2 import BACKEND as GF2_BACKEND, in_span
from .graphs import (
    CapacityError,
    Graph,
    PatternError,
    PatternGraph,
    is_twin_cover,
    min_twin_cover,
    twin_decomposition,
)
from .kernelization import (
    KernelResult,
    KernelStats,
    kernel_size_bound,
    kernelize,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported when the name is first read
_ON_DEMAND = {
    "composer": "composer",
    "BlockingGadget": "composer",
    "CompositionLayout": "composer",
    "ListColoringInstance": "composer",
    "TriangleSplitInstance": "composer",
    "build_blocking_gadget": "composer",
    "compose": "composer",
    "gadget_extends": "composer",
    "generate_tsd_instance": "composer",
    "list_to_plain": "composer",
    "oracle": "oracle",
    "find_2_3_coloring": "oracle",
    "find_3_coloring": "oracle",
    "find_h_coloring": "oracle",
    "find_list_3_coloring": "oracle",
    "verify_h_coloring": "oracle",
}

__all__ = [
    "build_coloring_polynomial", "evaluate", "GF2_BACKEND", "in_span",
    "CapacityError", "Graph", "PatternError", "PatternGraph", "is_twin_cover",
    "min_twin_cover", "twin_decomposition",
    "KernelResult", "KernelStats", "kernel_size_bound", "kernelize",
    *(name for name, home in _ON_DEMAND.items() if name != home),
]


def __getattr__(name: str):
    home = _ON_DEMAND.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_ON_DEMAND})
