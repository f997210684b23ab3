"""supergram: maximal superposition states over nonorthogonal bases.

The library encodes a set of linearly independent basis states by its Gram
matrix, detects and constructs the golden (maximally resourceful)
superposition states the setting admits, synthesizes the superposition-free
Kraus channels certifying their convertibility, and evaluates superposition
monotones with their extremal bounds.
"""

from .gram import (
    EigenSystem,
    GramSetting,
    ValidationReport,
    build_setting,
    eigensystem,
    embedding,
    fix_phase,
    rayleigh,
    setting_from_json,
    setting_to_json,
    validate,
)
from .states import (
    DensityOperator,
    SuperpositionState,
    density_mixed,
    density_pure,
    inner,
    normalize,
    state_from_json,
    state_to_json,
    superposition_rank,
    tilde,
)
from .golden import (
    GoldenCandidate,
    GoldenSearchReport,
    candidate_form,
    closed_form_d2,
    closed_form_equal_real,
    degenerate_family_d3,
    detect,
    golden_setting,
    random_frame_d3,
    table1_row,
)
from .freeops import (
    ChannelCertificate,
    FreeKraus,
    KrausSet,
    apply_map,
    apply_mixed,
    build_kraus_set,
    build_s2,
    is_free_kraus,
    residual,
)
from .monotones import (
    MonotoneReport,
    bound_check,
    constant_trace_overlaps,
    l1_superposition,
    monotone_report,
    rel_entropy_superposition,
)
from .sampling import random_setting, random_state

__version__ = "0.1.0"
