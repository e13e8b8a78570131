"""Certifying matrix-partition tools for chordal graphs.

The package decides whether a chordal graph splits into three independent
sets with the last two completely joined, returning either a verified
partition or a vertex set inducing a member of the fixed blocker
catalogue.  It also ships a generic exhaustive matrix-partition oracle,
the catalogue itself, chordality certificates, random chordal generation,
and exhaustive small-graph enumeration used to machine-check the whole
construction.
"""

from .catalogue import (
    ObstructionKind,
    fan,
    fan_kind,
    find_obstruction_by_scan,
    obstruction_graph,
)
from .chordal import (
    ChordalityCertificate,
    canonical_key,
    enumerate_connected_chordal,
    is_chordal,
    random_chordal,
)
from .graph import (
    Graph,
    Graph6Error,
    VertexSet,
    components,
    contains_induced,
    from_edgelist,
    from_graph6,
    induced,
    is_bipartite,
    is_isomorphic,
    to_dot,
    to_edgelist,
    to_graph6,
)
from .patterns import (
    M1,
    Pattern,
    PartitionViolation,
    is_minimal_obstruction,
    solve,
    verify_assignment,
)
from .solver import (
    M1Certificate,
    NotChordalError,
    bipartizer_set,
    solve_certifying,
    solve_one_bipartizer,
    verify_certificate,
)

__all__ = [
    "ChordalityCertificate",
    "Graph",
    "Graph6Error",
    "M1",
    "M1Certificate",
    "NotChordalError",
    "ObstructionKind",
    "Pattern",
    "PartitionViolation",
    "VertexSet",
    "bipartizer_set",
    "canonical_key",
    "components",
    "contains_induced",
    "enumerate_connected_chordal",
    "fan",
    "fan_kind",
    "find_obstruction_by_scan",
    "from_edgelist",
    "from_graph6",
    "induced",
    "is_bipartite",
    "is_chordal",
    "is_isomorphic",
    "is_minimal_obstruction",
    "obstruction_graph",
    "random_chordal",
    "solve",
    "solve_certifying",
    "solve_one_bipartizer",
    "to_dot",
    "to_edgelist",
    "to_graph6",
    "verify_assignment",
    "verify_certificate",
]

__version__ = "0.1.0"
