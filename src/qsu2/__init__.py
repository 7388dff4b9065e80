"""Exact symbolic engine and verification suite for coherent states on the
compact quantum group SU_q(2).

Everything is computed over the field of rational functions of q; all
theorem checks are exact (zero tolerance).
"""

from .scalars import (ONE, Q, QRational, QScalar, ZERO, gauss_binomial,
                      jackson_q_integral_01, q_gamma_int,
                      q_number, q_pochhammer, q_pow)
from .parsing import parse_scalar
from .ncalg import (Algebra, AlgebraMap, DomainError, NCPoly, STD,
                    parse_element, retract, rewriting_certificate, star,
                    tensor_elem)
from .hopf import hopf_B, hopf_G, is_group_like, pi_map
from .comod import (GramForm, NonScalarError, VnComodule, pairing,
                    schur_scalar, solve_coinvariant_gram, weight_covectors)
from .charts import (Cover, TrivializationChart, build_gamma, chart,
                     cover, cover_equalizer, gauss_decompose,
                     localized_coinvariants, verify_chart)
from .bundle import (Section, cotensor_slice, glue_iso_check,
                     kappa, kappa_bar, sections_space)
from .haar import haar, verify_invariance, verify_positivity
from .coherent import (CoherentFamily, ResolutionResult, classical_limit_report,
                       lemma_integral, lemma_integral_closed_form, mu_density,
                       qbeta_check, ramanujan_qbeta, reproducing_apply,
                       resolution_operator, section_property_check,
                       solve_coherent)
from .suites import SUITES, run_suite

__version__ = "0.1.0"
