"""Effective Chabauty bounds for superelliptic curves y^m = f(x).

Exact p-adic arithmetic, Laurent-series charts on residue discs and annuli,
Newton-polygon zero counting, and the rank-favorable point-count bound, with
a small CLI gluing the pipeline together.
"""

from .bounds import (
    BoundReport,
    annulus_point_bound,
    bound_report,
    cover_transfer,
    disc_point_bound,
    minimal_width_differential,
    mu_factor,
    stoll_reference_bound,
    total_point_bound,
)
from .curve import SuperellipticCurve, genus, validate
from .geometry import (
    AnnulusAnalysis,
    ChartVerificationError,
    DiscAnalysis,
    DiscSpec,
    ResidueAnnulus,
    annulus_orbit_count,
    build_cluster_tree,
    classify_annulus,
    curve_branch_points,
    enumerate_maximal_annuli,
    parameterize_annulus,
    parameterize_disc,
)
from .padic import PadicContext, PadicNumber, chabauty_prime, qp_roots
from .search import RationalPoint, SearchReport, enumerate_points, verify_bound
from .series import AnnulusSpec, LaurentSeries, bc_integral

__all__ = [
    "AnnulusAnalysis",
    "AnnulusSpec",
    "BoundReport",
    "ChartVerificationError",
    "DiscAnalysis",
    "DiscSpec",
    "LaurentSeries",
    "PadicContext",
    "PadicNumber",
    "RationalPoint",
    "ResidueAnnulus",
    "SearchReport",
    "SuperellipticCurve",
    "annulus_orbit_count",
    "annulus_point_bound",
    "bc_integral",
    "bound_report",
    "build_cluster_tree",
    "chabauty_prime",
    "classify_annulus",
    "cover_transfer",
    "curve_branch_points",
    "disc_point_bound",
    "enumerate_maximal_annuli",
    "enumerate_points",
    "genus",
    "minimal_width_differential",
    "mu_factor",
    "parameterize_annulus",
    "parameterize_disc",
    "qp_roots",
    "stoll_reference_bound",
    "total_point_bound",
    "validate",
    "verify_bound",
]
