"""Run-length compressed count/locate index for Wheeler graphs.

Build an index over an edge-labelled directed multigraph whose vertex
numbering is a valid Wheeler order, then count or report the vertices at
which directed paths spelling a pattern end. Index size is governed by the
number of runs in the graph's label transform and the number of paths in an
edge-disjoint chain decomposition, not by the text-like size of the graph.
"""

from .build import (
    DegreeSums,
    PhiStructure,
    RLSequence,
    SpaceReport,
    ToeholdTable,
    WheelerRIndex,
    build_bwt,
    build_index,
    build_partial_sums,
    build_phi,
    build_rank_select,
    build_toehold,
    deserialize_index,
    load_index,
    save_index,
    serialize_index,
    space_report,
)
from .errors import FirstInOrderError, IndexInvariantError, NotWheelerError, WgfParseError
from .generators import (
    GeneratedInstance,
    gen_multi_paths,
    gen_string_cycle,
    gen_string_path,
    gen_trie,
    is_primitive,
)
from .graph import (
    IdAssignment,
    PathDecomposition,
    ValidationReport,
    Violation,
    WheelerGraph,
    assign_identifiers,
    decompose_paths,
    parse_graph,
    to_wgf,
    validate_wheeler,
)
from .oracle import naive_match, naive_trace
from .query import (
    MatchState,
    RankInterval,
    count,
    find_interval,
    full_interval,
    full_state,
    locate,
    phi,
    step_interval,
    step_toehold,
)

__version__ = "0.1.0"
