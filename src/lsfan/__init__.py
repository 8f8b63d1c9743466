"""Weyl group coset posets, LS-paths and LS-tableaux, defining chain posets
and the LS-fan of monoids, verified against a Demazure character oracle."""

from .rootdata import RootDatum, RootDatumError, build_root_datum, weyl_group_order
from .weyl import (
    Coset,
    GroupSizeError,
    LiftError,
    WeylElt,
    WeylGroup,
    make_group,
    one_line_to_word,
    word_to_one_line,
)
from .demazure import (
    character_of_irrep,
    demazure_character,
    demazure_dimension,
    weyl_dimension,
)
from .lspath import (
    LSPath,
    PathError,
    ShapePoset,
    endpoint,
    enumerate_ls_paths,
    initial_direction,
    theta_single,
    theta_single_inverse,
    validate_ls_path,
)
from .dcp import (
    DCP,
    DCPNode,
    IndexPoset,
    IndexPosetError,
    InvariantError,
    NotStandardError,
    Setup,
    StandardnessReport,
    UnderlineW,
    build_dcp_direct_w0,
    build_dcp_inductive,
    build_index_poset,
    chain_iposet,
    defining_chain_extremes,
    is_tau_standard,
    max_defining_chain,
    min_defining_chain,
    powerset_iposet,
    rho,
    tau_standardness_report,
    totally_ordered_exists,
    triangle_down,
    triangle_up,
)
from .tableaux import (
    LSTableau,
    ShapeError,
    TableauError,
    YoungTableau,
    degree,
    enumerate_ssyt,
    enumerate_standard,
    flatten,
    free_tableau,
    is_semistandard,
    is_standard,
    is_weakly_standard,
    ls_from_yt,
    make_tableau,
    shape_for_degree,
    tableau_endpoint,
    walk_standard,
    young_setup,
    yt_from_ls,
)
from .fan import (
    FanError,
    decompose,
    count_fan_degree,
    enumerate_fan_degree,
    fan_degree,
    fan_vector,
    hilbert_multidegrees,
    in_ls_plus,
    multidegree_conjecture_check,
    theta_d,
    theta_d_inverse,
    vector_key,
    weight,
)

__version__ = "0.1.0"
