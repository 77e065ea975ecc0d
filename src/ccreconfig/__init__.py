"""Reconfiguration of vertex subsets under connected-component rules.

Decide and construct step-by-step transformations of a subset A into a
subset B of a graph, where every intermediate subset must keep a fixed
multiset of connected-component sizes.  Ships exact solvers for paths,
cographs, and chordal graphs, a brute-force oracle for desk-scale
ground truth, a sequence verifier, and a CLI.
"""

from .errors import (
    InternalContradictionError,
    InvalidInstanceError,
    NotACographError,
    ReconfigError,
    StateSpaceTooLargeError,
    UnequalSizesError,
    WrongGraphClassError,
)
from .chordal import (
    ConflictGraph,
    build_conflict_graph,
    solve_equal_size_cj,
)
from .cographs import (
    CotreeNode,
    decompose_cograph,
    is_cograph,
    solve_cograph_cs,
)
from .graph import (
    Graph,
    SizeMultiset,
    cc_multiset,
    co_components,
    complete_graph,
    connected_components,
    cycle_graph,
    empty_graph,
    is_chordal,
    parse_graph,
    path_graph,
)
from .oracle import (
    ReconfigGraph,
    StateSpace,
    bfs_distances,
    build_reconfig_graph,
    enumerate_states,
    export_dot,
    oracle_solve,
    reachability_partition,
)
from .paths import (
    CompressedMove,
    expand_moves,
    is_path_graph,
    path_order,
    solve_path_cj,
    solve_path_cs,
)
from .rules import (
    Result,
    Rule,
    VerifyResult,
    adjacent,
    verify_sequence,
)

__version__ = "0.1.0"
