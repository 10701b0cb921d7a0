"""discosc: prescribed zero sets for second-order linear ODEs in the disc.

Builds the analytic coefficient a(z) for which f'' + a f = 0 admits a
solution vanishing exactly on a given sequence of disc points, with
growth of a tied to a chosen comparison scale; ships the counting,
separation, and sharpness diagnostics that certify the construction.
"""

from .geometry import (CarlesonBox, box_contains, carleson_box_table,
                       mobius_map, pseudo_distance)
from .interpolation import (GrowthRow, InterpolationSeries, TargetData,
                            choose_exponents)
from .oscillation import (OdeResidualReport, OscillationBundle,
                          ResidueCancellationError, WitnessReport,
                          ZeroCountReport, build_coefficient, node_targets,
                          sample_probes, sharpness_witness,
                          targets_from_product)
from .products import CanonicalProduct, primary_factor
from .scales import (GrowthScale, WeightPair, genus_from_scale,
                     polya_doubling, polya_order_estimate, weight_to_psi)
from .sequences import (SharpnessParams, ZeroSequence, blaschke_sum,
                        condition_report, count_near, generate_radial_geometric,
                        generate_rho_lattice, generate_sharpness,
                        log_integrated_count, rho_density_estimate,
                        rho_separation, sigma_report)

__version__ = "0.1.0"

__all__ = [
    "CarlesonBox", "box_contains", "carleson_box_table", "mobius_map",
    "pseudo_distance",
    "GrowthRow", "InterpolationSeries", "TargetData", "choose_exponents",
    "OdeResidualReport", "OscillationBundle", "ResidueCancellationError",
    "WitnessReport", "ZeroCountReport", "build_coefficient", "node_targets",
    "sample_probes", "sharpness_witness", "targets_from_product",
    "CanonicalProduct", "primary_factor",
    "GrowthScale", "WeightPair", "genus_from_scale", "polya_doubling",
    "polya_order_estimate", "weight_to_psi",
    "SharpnessParams", "ZeroSequence", "blaschke_sum", "condition_report",
    "count_near", "generate_radial_geometric", "generate_rho_lattice",
    "generate_sharpness", "log_integrated_count", "rho_density_estimate",
    "rho_separation", "sigma_report",
    "__version__",
]
