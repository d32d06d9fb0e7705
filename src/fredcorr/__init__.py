"""fredcorr: exact index calculus for polarized correspondences on
windowed mode spaces.

Everything is finite-dimensional and every index identity is checked by
exact integer computation; the public surface groups into subspace
arithmetic, polarized model spaces, correspondences and twists, fans,
graph decompositions, and the exactly solvable circle geometry.
"""

from .errors import (
    CompositionMismatch,
    DimensionMismatch,
    FredcorrError,
    InvalidInput,
    NotAFan,
    SelfLoopUnsupported,
    SymbolSingular,
)
from .subspaces import (
    PairIndexReport,
    Subspace,
    complement,
    dimension_index,
    intersection,
    nullspace,
    orthonormalize,
    pair_index,
    principal_cosines,
    rank,
    random_subspace,
    subspace_sum,
    subspaces_equal,
)
from .windows import ModeWindow, WindowedOperator, mode_span
from .spaces import (
    SHARP_NEGATIVE,
    SHARP_NONNEG,
    ModelSpace,
    Splitting,
    perturb_splitting,
    splitting_for_window,
)
from .morphisms import (
    Chain,
    Correspondence,
    Twist,
    chain_total_index,
    compose,
    delta,
    delta_direct,
    index,
    reduce_chain_ledger,
    tilde_ind,
)
from .circles import (
    LaurentCircle,
    LaurentSymbol,
    annulus_correspondence,
    build_sphere_chain,
    build_torus,
    chain_circle,
    disk_correspondence,
    multiplication_operator,
    mv_pairing,
    random_laurent_symbol,
    sphere_hardy_pair,
    stabilization_m0,
    symbol_twist,
    twist_circle,
    weighted_diagonal,
    winding_number,
)
from .fans import (
    Fan,
    FanIndexReport,
    TwistChain,
    fan_from_twists,
    fan_index,
    partition_parts,
    random_fan,
)
from .graphs import (
    DecompositionGraph,
    GraphEdge,
    edge_index,
    global_index_additive,
    global_index_fan,
    global_index_selfglue,
    has_self_loops,
    random_graph,
    sphere_path_graph,
    to_dot,
    torus_graph,
    vertex_index,
)
from .verify import available_suites, load_conventions, run_suite

__version__ = "0.1.0"
