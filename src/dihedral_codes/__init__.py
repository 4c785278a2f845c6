"""Codes from left ideals of dihedral group algebras over prime fields.

Builds F_q D for D dihedral of order 2 p^m under the admissibility
hypothesis, catalogs its idempotents, turns left ideals into linear codes
with exact minimum-weight enumeration, and screens them against every
abelian code of the same length.
"""

from .algebra import (
    AlgebraElem,
    hat,
    is_central,
    is_idempotent,
    left_translate,
    products,
)
from .codes import (
    DEFAULT_BUDGET,
    LinearCode,
    left_ideal_code,
    subgroup_pair_code,
)
from .ff import (
    InadmissibleParameters,
    PrimeField,
    check_admissible,
    is_prime,
    multiplicative_order,
    phi_prime_power,
)
from .groups import AbelianGroup, DihedralGroup, GroupElem, gamma
from .idempotents import (
    CentralCatalog,
    MatrixUnits,
    NonCentralGenerators,
    central_idempotents,
    matrix_units,
    noncentral_generator,
)
from .survey import (
    AbelianCatalog,
    SurveyRow,
    abelian_catalog,
    abelian_min_weight,
    enumerate_abelian_codes,
    equivalence_necessary_check,
    format_survey_table,
    gamma_image_code,
    write_survey_table,
)
from .verify import CHECK_NAMES, CheckResult, subgroup_pair_suite, run_checks

__version__ = "0.1.0"

__all__ = [
    "AbelianCatalog",
    "AbelianGroup",
    "AlgebraElem",
    "CHECK_NAMES",
    "CentralCatalog",
    "CheckResult",
    "DEFAULT_BUDGET",
    "DihedralGroup",
    "GroupElem",
    "InadmissibleParameters",
    "LinearCode",
    "MatrixUnits",
    "NonCentralGenerators",
    "PrimeField",
    "SurveyRow",
    "abelian_catalog",
    "abelian_min_weight",
    "central_idempotents",
    "check_admissible",
    "enumerate_abelian_codes",
    "equivalence_necessary_check",
    "format_survey_table",
    "gamma",
    "gamma_image_code",
    "hat",
    "is_central",
    "is_idempotent",
    "is_prime",
    "left_ideal_code",
    "left_translate",
    "subgroup_pair_code",
    "subgroup_pair_suite",
    "matrix_units",
    "multiplicative_order",
    "noncentral_generator",
    "phi_prime_power",
    "products",
    "run_checks",
    "write_survey_table",
]
