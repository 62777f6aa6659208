"""Twin-class kernelization toolkit for H-coloring instances.

Shrinks coloring/homomorphism instances by deleting edges whose constraint
rows are GF(2)-redundant and vertices that become isolated, with the
kernel size bounded by a polynomial in the twin-cover number of the input.
Also ships exact desk-scale oracles and a hard-instance composer for plain
3-coloring.
"""

from .composer import (
    BlockingGadget,
    CompositionLayout,
    ListColoringInstance,
    TriangleSplitInstance,
    build_blocking_gadget,
    compose,
    gadget_extends,
    generate_tsd_instance,
    list_to_plain,
)
from .constraints import (
    build_coloring_polynomial,
    constraint_count_bound,
    evaluate,
)
from .gf2 import (
    BACKEND as GF2_BACKEND,
    in_span,
    monomial_count_bound,
)
from .graphs import (
    CapacityError,
    Graph,
    PatternError,
    PatternGraph,
    TwinCover,
    TwinDecomposition,
    is_twin_cover,
    min_twin_cover,
    pattern_analyze,
    twin_decomposition,
)
from .kernelization import (
    KernelResult,
    KernelStats,
    kernel_size_bound,
    kernelize,
)
from .oracle import (
    find_2_3_coloring,
    find_3_coloring,
    find_h_coloring,
    find_list_3_coloring,
    verify_h_coloring,
)

__version__ = "0.1.0"
