"""Zero-distribution statistics of complex polynomials, with certified
discrepancy and zero-count bounds."""

from .poly import (
    FamilySpec,
    Polynomial,
    PolynomialFormatError,
    evaluate,
    lehmer_polynomial,
    make_family,
    power_minus_one,
    read_polynomial,
    rudin_shapiro_pair,
    write_polynomial,
)
from .roots import RootFindingError, RootSet, find_roots, unit_roots_rootset
from .norms import (
    Interval,
    NormProfile,
    QuadratureError,
    b_norm,
    compute_profile,
    e_measure_enclosure,
    mahler,
    mahler_plus,
    p_norm,
    sup_norm_enclosure,
)
from .zerostats import (
    AnnularStat,
    CountStat,
    SectorSpec,
    angular_discrepancy,
    annular_discrepancy,
    region_count,
)
from .geometry import (
    AnnularSector,
    Annulus,
    CoveringDisk,
    DiskOnCircle,
    GearWheel,
    Sector,
    build_gear,
    contains,
    covering_disk,
    tooth_arc,
)
from .bounds import (
    catalan_constant,
    disk_lower_bound,
    discrepancy_bounds,
    annular_bounds,
    ganelius_constant,
    gear_zero_upper_bound,
    min_degree_for_radius,
)
from .harness import BoundReport, SweepConfig, SweepResult, ToleranceConfig, certify, sweep

__version__ = "0.1.0"
