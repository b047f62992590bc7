"""K-theoretic Littlewood-Richardson coefficients by two counting rules,
a polynomial oracle, and invertible witness bijections."""

from .errors import (ContainmentError, DegreeError, DimensionMismatch,
                     DomainError, InputError, InternalInvariantError, KLRError,
                     NotRotatedShape, NotStraightShape, NotSymmetric,
                     ResidualNonzero)
from .grothendieck import (BasisExpansion, SparseIntPolynomial,
                           expand_in_g_basis, expand_in_schur_basis,
                           grothendieck_poly, is_symmetric, multiply,
                           schur_poly)
from .gtpatterns import (GTPattern, MarkedGTPattern, enumerate_gt,
                         markable_positions, marked_patterns, omega,
                         omega_inverse, upsilon, upsilon_inverse, validate,
                         weight_reversal_check)
from .lr import (CoefficientQuery, GammaTrace, buch_tableaux, coeff_buch,
                 coeff_classical, coeff_contra, coeff_oracle, contra_tableaux,
                 gamma, gamma_inverse, witness_lists)
from .shapes import (Partition, RotatedShape, SkewShape, contains, partitions,
                     partitions_up_to, rotate, skew)
from .tableaux import (SetValuedFilling, column_word, enumerate_svt,
                       is_dominant, is_lambda_dominant, is_semistandard,
                       row_word, superstandard, total_entries, weight)

__version__ = "0.1.0"
