"""Insertion/deletion-correcting codes over Z_2 and Z_4 and their symbol maps.

Construct Varshamov-Tenengolts and generalized Helberg codebooks, move them
between quaternary and binary spaces through the Naisargik maps, and verify
deletion-correction claims exhaustively through deletion spheres.
"""

from .helberg import (
    WeightSequence,
    cardinality_lower_bound,
    cardinality_upper_bound,
    coefficient,
    helberg_census,
    helberg_classes,
    helberg_code,
    moment,
    reduction_code,
    torsion_code,
    weight_sequence,
)
from .maps import (
    NAISARGIK_MAPS,
    VT_MAP_NAMES,
    SymbolMap,
    all_bijections,
    naisargik_map,
)
from .spheres import (
    CorrectionReport,
    check_codebooks,
    check_deletion_correcting,
    sphere_collisions,
    sphere_members,
)
from .verify import (
    CampaignCell,
    CampaignResult,
    reduction_analysis,
    torsion_analysis,
    verify_coefficient_lemma,
    verify_helberg_self,
    verify_image_correction,
    verify_inverse_correction,
    verify_residue_bijection,
    verify_vt_correction,
)
from .vt import (
    binary_vt_code,
    binary_vt_residue,
    equal_weight_scan,
    image_pair_diff,
    qary_vt_census,
    qary_vt_classes,
    qary_vt_code,
    qary_vt_residues,
    same_residue_witness,
    signature,
)
from .words import (
    DEFAULT_MAX_ENUM,
    ResourceLimitError,
    Word,
    format_word,
    iter_words,
    parse_word,
)

__version__ = "0.1.0"
