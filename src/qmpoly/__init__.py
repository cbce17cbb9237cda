"""Exact-arithmetic toolkit for rank-metric codes and the
(q,m)-polymatroids they induce: subspace lattices over GF(q),
generalized weight profiles, and machine verification of m-fold Wei
duality, code/table dual compatibility, and flag duality."""

from .delsarte import (DelsarteCode, GapCertificate, anticode_gap_search,
                       anticode_weights, code_weights, devectorize, gabidulin,
                       intersection_demipolymatroid, is_mrd, min_rank_distance,
                       random_code, random_subcode, subcode_dims,
                       sum_polymatroid, support_space, to_polymatroid,
                       trace_dual, transpose_code, transpose_min_polymatroid,
                       vectorize)
from .errors import GuardExceeded
from .field import GF, field
from .flags import (Flag, FlagDualityReport, NestingError, NormalizedFlag,
                    RelativeWeights, dual_flag, flag_polymatroid, flag_weights,
                    normalize_flag, random_flag, relative_weights,
                    verify_flag_duality)
from .lattice import (DEFAULT_SUBSPACE_GUARD, Subspace, SubspaceLattice,
                      enumerate_subspaces, gaussian_binomial, lattice_size)
from .matrix import Matrix, trace_product, vstack
from .polymatroid import (AxiomCheck, AxiomReport, NullityProfiles,
                          PolymatroidTable, ResidueDuality, Verdict,
                          WeightProfile, WeiReport, check_axioms,
                          conullity_table, generalized_weights,
                          nullity_profiles, nullity_table, residue_partition,
                          uniform, wei_duality_report, weight_witnesses)

__version__ = "0.1.0"

__all__ = [
    "GF", "field", "GuardExceeded",
    "Matrix", "vstack", "trace_product",
    "Subspace", "SubspaceLattice", "enumerate_subspaces",
    "gaussian_binomial", "lattice_size", "DEFAULT_SUBSPACE_GUARD",
    "PolymatroidTable", "Verdict", "AxiomCheck", "AxiomReport",
    "WeightProfile", "NullityProfiles", "ResidueDuality", "WeiReport",
    "uniform", "nullity_table", "conullity_table", "check_axioms",
    "generalized_weights", "weight_witnesses", "nullity_profiles",
    "residue_partition", "wei_duality_report", "sum_polymatroid",
    "intersection_demipolymatroid",
    "DelsarteCode", "vectorize", "devectorize", "support_space",
    "subcode_dims", "to_polymatroid", "trace_dual", "transpose_code",
    "code_weights", "anticode_weights", "transpose_min_polymatroid",
    "gabidulin", "min_rank_distance", "is_mrd", "anticode_gap_search",
    "GapCertificate", "random_code", "random_subcode",
    "Flag", "NormalizedFlag", "NestingError", "flag_polymatroid",
    "flag_weights", "dual_flag", "normalize_flag",
    "verify_flag_duality", "FlagDualityReport", "relative_weights",
    "RelativeWeights", "random_flag",
]
