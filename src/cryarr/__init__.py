"""Exact tools for simplicial and crystallographic hyperplane arrangements."""

from .errors import (
    ClosureOverflowError,
    CryarrError,
    CycleBrokenError,
    ExtremeRootsNotUnimodularError,
    HypothesisFailedError,
    MissingRootError,
    NonSimplicialError,
    NotClosedError,
    NotESequenceError,
    PreconditionFailedError,
    SingularMatrixError,
)
from .geometry import (
    Chamber,
    RootSet,
    adjacent_chamber,
    adjacent_reflection,
    cartan_of_chamber,
    chamber_graph,
    enumerate_chambers,
    initial_chamber,
    is_irreducible,
    is_simplicial,
    make_root_set,
)
from .groupoid import (
    GroupoidGraph,
    RootObject,
    VerifyResult,
    canonical_form,
    canonical_form_of_rootset,
    cartan_from_roots,
    make_root_object,
    reflect_object,
    traverse,
    verify_crystallographic,
)
from .linalg import smith_normal_form, vol
from .localization import (
    LocalizationCycles,
    PlaneRoots,
    localize,
    plane_roots,
    rank2_cycles,
)
from .rank2 import (
    Triangulation,
    catalan,
    enumerate_esequences,
    enumerate_quiddity_cycles,
    esequence_children,
    frieze_product,
    is_crystallographic_rank2,
    is_esequence,
    quiddity_of,
    triangulation_of,
)
from .search import SearchResult, enumerate_rank3
from .verifier import CheckReport, run_all

__version__ = "0.1.0"
