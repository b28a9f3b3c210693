"""cartierlab: exact computer algebra for Frobenius-trace module structures
over polynomial rings in positive characteristic.

Public surface, by layer:

* :mod:`cartierlab.fppoly` -- sparse exact polynomials over F_p, the p^e-adic
  decomposition, the trace operator, gauges.
* :mod:`cartierlab.idealkit` -- Groebner bases, ideal arithmetic, Frobenius
  roots, restricted minimal primes.
* :mod:`cartierlab.fpmod` -- presented modules, submodule lattice, torsion.
* :mod:`cartierlab.cartiercore` -- operator algebras on modules, stable
  cores, nilpotence, associated primes.
* :mod:`cartierlab.testmod` -- test elements and the distinguished-submodule
  (test module) engine, plus the principal fast path.
* :mod:`cartierlab.filtration` -- jumping numbers, graded pieces, Skoda.
* :mod:`cartierlab.functorops` -- ring maps and the pullback/pushforward
  functor calculus with coherent models.
* :mod:`cartierlab.scene` / :mod:`cartierlab.cli` -- reproducible scene files
  and the command-line harness.
"""

from .cache import ENGINE_VERSION, ResultCache
from .cartiercore import (CartierAlgebraSpec, CartierModule, CartierOp,
                          apply_cplus, ass_cartier, is_f_pure,
                          nil_isomorphism, nilpotence, underline,
                          validate_structure)
from .errors import (CartierLabError, GaugeBoundError, InvalidStructureError,
                     NoStabilizationError, NotEquivariantError, ParseError,
                     ResourceCapError, SearchBudgetError,
                     UnsupportedShapeError)
from .filtration import (JumpSpectrum, gr, inequality_checks, jumping_numbers,
                         skoda_report, twist_algebra)
from .fpmod import (ModuleMap, PresentedModule, Submodule, support_vanishes,
                    torsion)
from .fppoly import (EngineCaps, Gauge, Poly, RingSpec, cartier_trace,
                     gauge_of, pe_decompose)
from .functorops import (RingMap, coherent_model, coherent_models_agree,
                         fiber_primes, gauge_growth_probe, pushforward_finite,
                         pushforward_point, shriek_affine_line, shriek_finite,
                         shriek_localize)
from .idealkit import (Ideal, PrimeIdeal, frobenius_root,
                       frobenius_root_of_power, minimal_primes)
from .testmod import (TauResult, TestElementSequence, find_test_elements,
                      is_f_regular, tau, tau_bms, tau_prime)

__version__ = "0.1.0"
