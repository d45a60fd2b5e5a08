"""Run-length compressed count/locate index for Wheeler graphs.

Build an index over an edge-labelled directed multigraph whose vertex
numbering is a valid Wheeler order, then count or report the vertices at
which directed paths spelling a pattern end. Index size is governed by the
number of runs in the graph's label transform and the number of paths in an
edge-disjoint chain decomposition, not by the text-like size of the graph.
"""

from .build import (
    SpaceReport,
    WheelerRIndex,
    build_index,
    deserialize_index,
    load_index,
    save_index,
    serialize_index,
    space_report,
)
from .errors import FirstInOrderError, IndexInvariantError, NotWheelerError, WgfParseError
from .generators import gen_multi_paths, gen_string_cycle, gen_string_path, gen_trie
from .graph import WheelerGraph, assign_identifiers, decompose_paths, parse_graph, to_wgf, validate_wheeler
from .oracle import naive_match
from .query import count, locate

__version__ = "0.1.0"
