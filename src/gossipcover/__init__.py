"""Coverage of a convex environment by pairwise territory exchange.

A team of agents holds a partition of a convex polygon into regions of
convex pieces. Pairs of regions repeatedly rebalance along the
perpendicular bisector of their one-center points; the multicenter
coverage cost never increases, and persistent pairing drives the
partition to a centroidal Voronoi configuration. The package bundles
the exact polygon machinery, the pairwise exchange maps (full and
distance-limited), schedulers and evolution runners, a one-dimensional
exact-arithmetic interval family, a robotic-network simulation, and a
CLI for reproducible experiments.
"""

from .geometry import (ConvexPolygon, EmptyRegion, GeometryError, GridDensity,
                       HalfPlane, PerformanceFunction, PieceBudgetExceeded,
                       Region, UniformDensity, VanishedRegion,
                       bisector_halfplane, centroid, hausdorff_distance,
                       interior_distance, intersection_area,
                       linear_performance, mass_centroid, one_center_cost,
                       quadratic_performance, region_of, regions_within,
                       symdiff_area)
from .gossip import (StepOutcome, fixed_point_residual, gossip_step,
                     is_mixed_centroidal, lloyd_step, partial_gossip_step)
from .netsim import NetConfig, NetTrace, SamplingExhausted, simulate
from .partition import (DegenerateEvolution, Environment, Partition,
                        adjacency_pairs, centroid_cost, centroids,
                        environment, is_centroidal_voronoi, multicenter_cost,
                        partition_distance, read_snapshot, rectangle, voronoi,
                        write_snapshot)
from .switching import (AdjacentRandom, EvolutionTrace, ExplicitSchedule,
                        Periodic, RoundRobin, UniformRandom, run_evolution,
                        run_lloyd, run_polar)

__version__ = "0.1.0"

__all__ = [
    "AdjacentRandom", "ConvexPolygon", "DegenerateEvolution", "EmptyRegion",
    "Environment", "EvolutionTrace", "ExplicitSchedule", "GeometryError",
    "GridDensity", "HalfPlane", "NetConfig", "NetTrace", "Partition",
    "PerformanceFunction", "Periodic", "PieceBudgetExceeded", "Region",
    "RoundRobin", "SamplingExhausted", "StepOutcome", "UniformDensity",
    "UniformRandom", "VanishedRegion", "adjacency_pairs",
    "bisector_halfplane", "centroid", "centroid_cost", "centroids",
    "environment", "fixed_point_residual", "gossip_step",
    "hausdorff_distance", "interior_distance", "intersection_area",
    "is_centroidal_voronoi", "is_mixed_centroidal", "linear_performance",
    "lloyd_step", "mass_centroid", "multicenter_cost", "one_center_cost",
    "partial_gossip_step", "partition_distance", "quadratic_performance",
    "read_snapshot", "rectangle", "region_of", "regions_within",
    "run_evolution", "run_lloyd", "run_polar", "simulate", "symdiff_area",
    "voronoi", "write_snapshot",
]
