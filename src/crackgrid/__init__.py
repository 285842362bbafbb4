"""Grid-discretized free-discontinuity toolkit.

Cell-valued functions with explicit crack faces, their fracture energies,
exact range-concentration profiles, bubble decompositions, induced domain
partitions with piecewise renormalization, and sequence-level compactness
diagnostics (vanishing certificates, slicing, jump lower semicontinuity).
"""

from .analysis import (
    SequenceReport,
    SliceLscReport,
    VanishingCertificate,
    bubble_partition,
    compactness_report,
    grid_iso_constant,
    lsc_report,
    slice_line,
    vanishing_certificate,
)
from .bubbles import (
    Bubble,
    BubbleDecomposition,
    BubbleTracks,
    TrichotomyVerdict,
    classify,
    extract_bubbles,
    track_sequence,
)
from .fixtures import fixture_runaway, fixture_staircase
from .grid import (
    CellSet,
    EnergyReport,
    GeometryMismatchError,
    GridFunction,
    GridGeometry,
    InvariantError,
    cell_set_from_dict,
    cell_set_to_dict,
    energy,
    grid_function_from_dict,
    grid_function_to_dict,
    kyfan_distance,
)
from .partition import (
    DomainPartition,
    RadiusChoice,
    build_partition,
    perturbed_translation,
    renormalize,
    select_radii,
    vanishing_region,
)
from .profile import (
    ConcentrationProfile,
    concentration_profile,
    levy_concentration,
    profile_to_csv,
    profile_to_svg,
)

__version__ = "0.1.0"

__all__ = [
    "Bubble",
    "BubbleDecomposition",
    "BubbleTracks",
    "CellSet",
    "ConcentrationProfile",
    "DomainPartition",
    "EnergyReport",
    "GeometryMismatchError",
    "GridFunction",
    "GridGeometry",
    "InvariantError",
    "RadiusChoice",
    "SequenceReport",
    "SliceLscReport",
    "TrichotomyVerdict",
    "VanishingCertificate",
    "bubble_partition",
    "build_partition",
    "cell_set_from_dict",
    "cell_set_to_dict",
    "classify",
    "compactness_report",
    "concentration_profile",
    "energy",
    "extract_bubbles",
    "fixture_runaway",
    "fixture_staircase",
    "grid_function_from_dict",
    "grid_function_to_dict",
    "grid_iso_constant",
    "kyfan_distance",
    "levy_concentration",
    "lsc_report",
    "perturbed_translation",
    "profile_to_csv",
    "profile_to_svg",
    "renormalize",
    "select_radii",
    "slice_line",
    "track_sequence",
    "vanishing_certificate",
    "vanishing_region",
]
