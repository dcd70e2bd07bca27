"""bellscope: see-saw optimization and exact combinatorics for two-party,
two-outcome Bell inequalities on isotropic states."""

__version__ = "0.1.0"

from .inequality import (
    BellInequality,
    CgParseError,
    InclusionWitness,
    Transform,
    apply_transform,
    are_equivalent,
    canonical_form,
    classical_max,
    dot_digraph,
    flip_outcome,
    inclusion_digraph,
    includes,
    load_cg,
    parse_cg,
    serialize_cg,
    xor_game_form,
)
from .quantum import (
    CorrelationVector,
    Crossing,
    DensityMatrix,
    Effect,
    MeasurementSet,
    alpha_crossing,
    correlations,
    dump_measurements,
    isotropic_state,
    load_measurements,
    max_entangled,
    parse_measurements,
    random_projective_measurement,
    violation,
)
from .seesaw import SeesawConfig, SeesawResult, multi_restart_max, optimize_party
from .threshold import AlphaEstimate, SearchConfig, alpha_max
from .chsh import (
    ProjectionVectors,
    alpha_max_chsh,
    chsh_form_value,
    chsh_max_violation_d3,
    chsh_switched_form_value,
    measurements_from_vectors,
    tsirelson_chsh_max,
    tsirelson_vectors,
)
from .catalog import (
    AppendixReport,
    CatalogEntry,
    find_entry,
    load_catalog,
    relevance_summary,
    verify_appendix,
)
