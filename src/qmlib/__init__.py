"""qmlib: exact analysis of non-symmetric distance spaces.

Distances here are functions d: X x X -> [0, inf] satisfying only the
triangle law; symmetry and zero self-distance are never assumed.  The
package classifies sequences (reflexive / pre-Cauchy / Cauchy), decides
ball and hole convergence, computes metric and order suprema, derives the
ball bound step functions, extends spaces by formal balls, and audits the
completeness statements connecting all of these, everything in exact
rational arithmetic.
"""

from .extreal import INF, ONE, ZERO, ExtReal
from .space import (FiniteSpace, PreconditionError, SpaceError, Validation,
                    balls_and_holes, derive, load_space, minplus_closure,
                    space_from_rows, threshold_grid)
from .nets import (EpSeq, NetClasses, cauchy_subsequence, classify, epseq,
                   epseq_from_labels, net_distance, seq_from_dict,
                   seq_limits_against)
from .family import (CertificateError, FamilySeq, FamilySpace,
                     UndecidableAtCutoff, cauchy_subsequence_family,
                     classify_family, family_is_complete,
                     family_limits_against, family_subnet_equiv)
from .topology import (ConvergenceReport, check_hole_characterizations,
                       convergence, is_complete, limit_set,
                       pre_cauchy_subnet_equiv)
from .order import (SupremumResult, check_ed_complete, is_directed,
                    link_directed_sequence, suprema)
from .derived import (DerivedFunctions, StepFn, derived_functions,
                      dist_subequiv, leq_identity, sub_identity)
from .formal_balls import (FormalBall, RadiusSeq, fb_distance, fb_distance_raw,
                           formal_ball, formal_ball_from_dict, kw_audit, kw_limit)
from .theorems import (AuditReport, STATEMENTS, audit,
                       construct_directed_from_cauchy)
from .gallery import GALLERY_NAMES, build, verify

__version__ = "0.1.0"
