"""Shortest-distance enumeration as pull streams with delay bounds.

Build a Graph, pick an output regime, pull (source, target, distance)
triples one at a time.  Every pull runs the underlying machine for a
budgeted number of instrumented steps, so the gap between consecutive
outputs is bounded by a declared function of the graph's degree
statistics; metering helpers measure and fit those delays.
"""
from .bmm import bmm_multiply
from .enumerators import (DistanceTriple, Enumerator, INFINITE, OutputMode,
                          ScheduleUnderflow, make_enumerator)
from .graph import (Graph, GraphFormatError, from_edge_list, format_graph,
                    gen_bmm_graph, gen_clique_path, gen_isolated_plus_edge,
                    gen_random, gen_star, parse_graph)
from .lazyarray import LazyArray
from .metering import DelayReport, StepCounter, fit_bound, run_metered
from .oracle import (DistanceMatrix, Violation, brute_force_matrix,
                     direct_multiply, format_bool_matrix, parse_bool_matrix,
                     validate)
from .pq import AddressablePQ

__version__ = "0.1.0"

__all__ = [
    "AddressablePQ", "DelayReport", "DistanceMatrix", "DistanceTriple",
    "Enumerator", "Graph", "GraphFormatError", "INFINITE", "LazyArray",
    "OutputMode", "ScheduleUnderflow", "StepCounter", "Violation",
    "bmm_multiply", "brute_force_matrix", "direct_multiply", "fit_bound",
    "format_bool_matrix", "format_graph", "from_edge_list", "gen_bmm_graph",
    "gen_clique_path", "gen_isolated_plus_edge", "gen_random", "gen_star",
    "make_enumerator", "parse_bool_matrix", "parse_graph", "run_metered",
    "validate", "__version__",
]
