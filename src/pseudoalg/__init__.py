"""Exact workbench for finite Lie pseudoalgebras over enveloping algebras.

Everything is computed over the rationals: the divided-power basis of
U(d), tensor canonical forms, bracket tables on free modules, the named
vector-field families with their calculus, truncated functional brackets,
low-degree cohomology with central-extension solvers, and the dictionary
with linear local Poisson brackets.
"""

from .liealg import (Form, GeometricDatum, LieAlgebra, algebra_by_name,
                     ce_differential, validate_geometric_datum,
                     validate_lie_algebra)
from .pbw import HElt, TensorElt, fourier
from .tensor import FreeModule, MElt, QElt
from .pseudo import (ModuleStructure, PseudoStructure, Report, verify_axioms,
                     verify_homomorphism, verify_module, x_bracket)
from .constructions import (GeneratedSubalgebra, Rank1Datum, check_ybe,
                            divergence, embed_rank1_in_wd, make_cend,
                            make_current, make_gc, make_module_rank1,
                            make_rank1, make_sd, make_wd, named_rank1_datum,
                            rank1_module_check)
from .forms import act_on_form, contract_form, form_differential, form_module
from .annihilation import (AnnihilationElement, PrecisionError,
                           TruncatedSeries, annihilation_bracket,
                           vector_field_bracket)
from .cohomology import (Cochain, differential, hat_central_extension,
                         sd_central_suite, solve_central_extensions,
                         solve_central_extensions_rank1, verify_cur_cocycle)
from .poisson import (PoissonBracketSpec, poisson_catalog, poisson_to_pseudo,
                      pseudo_to_poisson)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
