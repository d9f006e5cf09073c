"""coarselab: a desk-scale laboratory for coarse geometry.

Finite metric spaces, six interconvertible certificate forms with measured
parameters, positive/negative-type kernel calculus and embeddings, graph
expansion obstructions, group/box-space constructions, and LP-based
support-radius quantification.
"""

from .spaces import (
    FiniteMetricSpace,
    PointMap,
    CompressionProfile,
    graph_metric,
    lp_product,
    separated_union,
    net_extract,
    bounded_geometry_stats,
    compression_profile,
    cycle_space,
    path_space,
    complete_space,
    tree_space,
    hypercube_space_graph,
)
from .witnesses import (
    AFamily,
    LpWitness,
    TailWitness,
    PartitionWitness,
    VectorWitness,
    KernelWitness,
    WitnessReport,
    measure_witness,
    validate_witness,
    convert_witness,
    tree_witness,
    lipschitz_partition,
    glue_witness,
    product_witness,
    union_witness,
    subspace_witness,
    ball_witness,
)
from .kernels import (
    Kernel,
    Embedding,
    KernelClass,
    classify_kernel,
    embed_from_kernel,
    schur_product,
    exp_transform,
    power_transform,
    gaussian_from_embedding,
    ce_sum,
    lp_negtype_kernel,
    mazur_map,
    yu_embedding,
    yu_profile_bounds,
    lp_sequence_embedding,
    lp_profile_bounds,
    kernel_operator_bridge,
    kernel_decay_table,
)
from .spectral import (
    RegularGraph,
    SpectralReport,
    ExpansionReport,
    laplacian_gap,
    poincare_check,
    expansion_constant,
    concentration_test,
    kazhdan_gap,
    random_regular_graph,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    QuotientChain,
    BoxSpace,
    cyclic_group,
    z2_power_group,
    dihedral_group,
    direct_product,
    group_power,
    cayley_metric,
    quotient_group,
    quotient_metric,
    build_box,
    box_to_kernel,
    box_to_function,
    first_isometric_block,
    hypercube_space,
    hypercube_kernel,
    warp_metric,
    warp_bruteforce,
    warped_witness,
)
from .amenability import (
    FolnerFunction,
    DiamTable,
    reiter_defect,
    optimal_folner,
    witness_feasibility,
    diam_table,
    folner_to_witness,
    witness_to_folner,
    kernel_to_function,
    growth_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
