"""fmlat: exact Fourier-Mukai lattice calculus for elliptic surfaces.

Chow-ring arithmetic with exact rationals, kernel classes on the product of
a K3 with itself, the 4x4 operator algebra of the associated transforms,
the SL2(Z) calculus on (rank, fiber degree), and the numerical hypothesis
checks behind Strange Duality.
"""

from .bridgeland import FM2, GenBiratClass, canonical_ab, gen_birat_classify
from .chow import (CohClass, STANDARD_K3, SurfaceDescriptor, ch_line_bundle,
                   chi_tensor, dual, fdeg, from_coords, is_standard_k3,
                   load_surface, moduli_dim_k3, mult, pairing_gram,
                   parse_surface, to_coords, todd)
from .errors import (AdmissibilityError, CoprimalityError, FmlatError,
                     InputError, ReductionError, SingularMatrixError,
                     UnsupportedModelError)
from .linalg import Mat
from .operators import (GoldenName, Operator, build, golden, op_pi_tensor,
                        op_tensor, restrict2)
from .product import (ProductClass, Side, diag_push_grr, fm_matrix,
                      kernel_class, prod_mult, product_todd, pull, push,
                      render_product_class)
from .sd import (SDCheckResult, SDPair, SDReport, SearchTarget, Theorem,
                 build_report, mo_base_check, orthogonal_check, sd_check,
                 search_phi, transformed_ranks)
from .verify import VerifyCase, VerifyOutcome, run_verify

__version__ = "0.1.0"
