"""pslab: persistent Betti numbers and stabilization radii of random
geometric filtrations, with Monte Carlo experiments for their limit theory."""

__version__ = "0.1.0"

from .filtration import FilteredComplex, build, mu
from .persistence import (
    PersistenceDiagram,
    RankQuery,
    connected_component_count,
    persistent_betti,
    persistent_betti_direct,
    reduce,
)
from .point_process import (
    BallWindow,
    BlockedDensity,
    Box,
    Density,
    DomainError,
    PointCloud,
    RngSeed,
    constant_density,
    sample_binomial,
    sample_poisson_homogeneous,
    sample_poisson_inhomogeneous,
)
from .stabilization import (
    AddOneQuery,
    RadiusEstimate,
    StabilizationTrace,
    add_one_cost,
    strong_radius_estimate,
    swap_difference,
    weak_radius,
)

__all__ = [
    "AddOneQuery",
    "BallWindow",
    "BlockedDensity",
    "Box",
    "Density",
    "DomainError",
    "FilteredComplex",
    "PersistenceDiagram",
    "PointCloud",
    "RadiusEstimate",
    "RankQuery",
    "RngSeed",
    "StabilizationTrace",
    "add_one_cost",
    "build",
    "connected_component_count",
    "constant_density",
    "mu",
    "persistent_betti",
    "persistent_betti_direct",
    "reduce",
    "sample_binomial",
    "sample_poisson_homogeneous",
    "sample_poisson_inhomogeneous",
    "strong_radius_estimate",
    "swap_difference",
    "weak_radius",
]
