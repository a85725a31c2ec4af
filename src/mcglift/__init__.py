"""Covers of closed surfaces from finite quotients.

The package builds finite covers of a closed genus-g surface out of finite
quotients of its fundamental group, certifies the subgroup conditions that
make mapping classes lift uniquely (self-normalizing Sylow images, Borel
subgroups of PSL2 over prime fields), and realizes the induced homomorphism
on the cover subgroup through Reidemeister-Schreier rewriting.
"""

from .perm import Permutation, mulclose
from .words import (
    SurfacePresentation,
    cover_genus,
    format_word,
    free_reduce,
    inverse_word,
    parse_word,
)
from .quotients import (
    FiniteHom,
    FiniteTarget,
    borel_subgroup,
    count_homs_oracle,
    epi_tuples,
    generates,
    hom_tuples,
    mod2_homology_hom,
    target_a5,
    target_c2,
    target_c2k,
    target_psl2,
    target_s3,
)
from .autos import (
    AutGen,
    OrbitRecord,
    SurfaceAuto,
    certify_characteristic,
    identity_auto,
    inner_auto,
    orbit,
    standard_autgens,
)
from .cosets import (
    AutImage,
    CosetTable,
    alpha_apply,
    certified_homology_table,
    expand,
    rewrite,
    verify_finite_index_containment,
    verify_injectivity_mechanism,
)
from .forge import (
    CoverCertificate,
    build_subdirect_image,
    forge_certificate_hall,
    forge_certificate_s3,
    minimal_degree_search,
    module_rank_s3,
    normalizer_is_self_borel,
    normalizer_is_self_s3,
    structural_order_s3,
    sylow2_s3,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
