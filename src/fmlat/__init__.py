"""fmlat: exact Fourier-Mukai lattice calculus for elliptic surfaces.

Chow-ring arithmetic with exact rationals, kernel classes on the product of
a K3 with itself, the 4x4 operator algebra of the associated transforms,
the SL2(Z) calculus on (rank, fiber degree), and the numerical hypothesis
checks behind Strange Duality.

`import fmlat` loads no submodule: each name below is looked up in its
module on access, so a caller loads only the layers it uses.
"""

import importlib

_EXPORTS = {
    "bridgeland": ("FM2", "GenBiratClass", "canonical_ab", "gen_birat_classify"),
    "chow": ("CohClass", "STANDARD_K3", "SurfaceDescriptor", "ch_line_bundle",
             "chi_tensor", "dual", "fdeg", "from_coords", "is_standard_k3",
             "load_surface", "moduli_dim_k3", "mult", "pairing_gram",
             "parse_surface", "to_coords", "todd"),
    "errors": ("AdmissibilityError", "CoprimalityError", "FmlatError",
               "InputError", "ReductionError", "SingularMatrixError",
               "UnsupportedModelError"),
    "linalg": ("Mat",),
    "operators": ("GoldenName", "Operator", "build", "golden", "op_pi_tensor",
                  "op_tensor", "restrict2"),
    "product": ("ProductClass", "Side", "diag_push_grr", "fm_matrix",
                "kernel_class", "prod_mult", "product_todd", "pull", "push",
                "render_product_class"),
    "sd": ("SDCheckResult", "SDPair", "SDReport", "SearchTarget", "Theorem",
           "build_report", "mo_base_check", "orthogonal_check", "sd_check",
           "search_phi", "transformed_ranks"),
    "verify": ("VerifyCase", "VerifyOutcome", "run_verify"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # a name that is no export, such as a submodule's, raises AttributeError,
    # so `from fmlat import verify` goes on to import the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
