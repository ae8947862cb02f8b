"""Balanced superelliptic covers: word problems, liftability, homology actions.

The package decides word equality in the three base groups of the marked
sphere (disk, capped disk, sphere), tests liftability of mapping classes
and curves through the degree-k cyclic branched cover, builds that cover
as a combinatorial surface with its intersection form, and mechanically
certifies the small-generating-set theorems at desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    ContextMismatchError,
    DoesNotLiftError,
    SuperellipticError,
    WordSyntaxError,
)
from .words import Context, Permutation, Word, exponent_sum, psi
from .generators import (
    expand_token_text,
    gen_F,
    gen_h,
    gen_hchain_t,
    gen_r,
    gen_r1,
    gen_t,
)
from .oracle import (
    FreeAutomorphism,
    FreeWord,
    artin_action,
    eq_disk,
    eq_sphere,
    eq_star,
    is_inner,
    sphere_action,
)
from .liftability import (
    CurveClass,
    ParityClass,
    curve_monodromy,
    curve_parse,
    gamma_curve,
    is_liftable_word,
    parity,
    w_size,
)
from .cover import (
    CoverSurface,
    build_cover,
    check_normalizes_deck,
    lift_cycle,
    lift_rep,
    pairing,
    twist_matrix,
)
from .theorems import (
    Bounds,
    Claim,
    Report,
    reverify_report,
    run_all,
    verify,
    verify_generation,
    verify_relations,
    verify_smod_homology,
)
