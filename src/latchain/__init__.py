"""Exact chain-polynomial machinery for posets and geometric lattices."""

from .polynomial import (
    ExactPoly,
    RootIsolation,
    certify_interlacing_sequence,
    diamond_product,
    f_from_h,
    h_from_f,
    interlaces,
    is_real_rooted,
    isolate_real_roots,
    roots_in_interval,
    sturm_real_root_count,
)
from .posets import (
    Poset,
    chain_poset,
    poset_from_text,
    poset_to_text,
    write_poset,
)
from .tn import (
    RMatrix,
    ResolutionWitness,
    ResolveOutcome,
    chain_polys_from_rmatrix,
    is_atomistic,
    is_geometric,
    is_quasi_rank_uniform,
    is_totally_nonnegative,
    ordinal_sum_rows,
    rank_matrix,
    resolve,
)
from .families import (
    Design,
    DPartition,
    ModularCut,
    affine_lattice,
    boolean_lattice,
    build_instance,
    build_rows,
    design_poset,
    dowling_rows,
    fano_design,
    fano_lattice,
    linear_space_lattice,
    modular_cut_validate,
    partition_lattice,
    paving_lattice_from_dpartition,
    principal_cut,
    single_element_extension,
    subspace_lattice,
    truncated_boolean,
    uniform_design,
    vamos_lattice,
)
from .permstats import eulerian, q_eulerian
from .reports import CheckReport, write_csv, write_jsonl
from .suites import (
    SUITE_NAMES,
    brute_force_oracle,
    counterexample_search,
    rank3_formula,
    suite_run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
