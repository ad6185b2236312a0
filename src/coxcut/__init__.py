"""coxcut: point-process classification with graph-cut semi-supervised labeling.

Supervised prediction costs O(N) per test point; conditioning on covariates
yields a fully connected Potts label field whose binary MAP is solved
exactly by min-cut and whose multiclass MAP is approached with expansion
moves.
"""

from .classify import (
    ClassModel,
    activations,
    activations_batch,
    kde_predict,
    kde_predict_batch,
    predict_label,
    predict_labels,
    predict_proba,
    predict_proba_batch,
    shared_models,
)
from .cv import default_lengthscale_grid, kfold_cv_ssl, loo_cv
from .data import (
    Dataset,
    gen_concentric_circles,
    gen_double_helix,
    load_covariates,
    load_csv,
    partition,
    save_csv,
    stratified_mask,
)
from .expansion import alpha_expansion, expansion_move, ssl_solve
from .kernels import Kernel
from .mincut import (
    FlowNetwork,
    QuantizationRecord,
    binary_map,
    build_flow_network,
    cut_capacity,
    max_flow,
    node_balances,
)
from .mrf import (
    EnergyGraph,
    brute_force_log_partition,
    brute_force_map,
    build_energy,
    check_pairwise_representable,
    energy_of,
    joint_unnormalized_log_prob,
    pair_tables,
)
from .simulate import (
    IntensityField,
    Window,
    log_product_density,
    sample_gp_field,
    sample_poisson_points,
    thin,
)

__version__ = "0.1.0"

# There is no compiled path; perfbench/run.py still records this flag in its env line.
USE_NUMBA = False

__all__ = [
    "ClassModel",
    "Dataset",
    "EnergyGraph",
    "FlowNetwork",
    "IntensityField",
    "Kernel",
    "QuantizationRecord",
    "Window",
    "activations",
    "activations_batch",
    "alpha_expansion",
    "binary_map",
    "brute_force_log_partition",
    "brute_force_map",
    "build_energy",
    "build_flow_network",
    "check_pairwise_representable",
    "cut_capacity",
    "default_lengthscale_grid",
    "energy_of",
    "expansion_move",
    "gen_concentric_circles",
    "gen_double_helix",
    "joint_unnormalized_log_prob",
    "kde_predict",
    "kde_predict_batch",
    "kfold_cv_ssl",
    "load_covariates",
    "load_csv",
    "log_product_density",
    "loo_cv",
    "max_flow",
    "node_balances",
    "pair_tables",
    "partition",
    "predict_label",
    "predict_labels",
    "predict_proba",
    "predict_proba_batch",
    "sample_gp_field",
    "sample_poisson_points",
    "save_csv",
    "shared_models",
    "ssl_solve",
    "stratified_mask",
    "thin",
]
