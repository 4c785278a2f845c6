"""Codes from left ideals of dihedral group algebras over prime fields.

Builds F_q D for D dihedral of order 2 p^m under the admissibility
hypothesis, catalogs its idempotents, turns left ideals into linear codes
with exact minimum-weight enumeration, and screens them against every
abelian code of the same length.

The names below load on first use (PEP 562), each from the module that
defines it.  So importing the package, which `python -m
dihedral_codes.cli` does first, loads no numpy; `survey` and `ff` never
load it at all.
"""

from importlib import import_module

__version__ = "0.1.0"

_SOURCES = {
    "algebra": ("AlgebraElem", "hat", "is_central", "is_idempotent", "products"),
    "check_names": ("CHECK_NAMES",),
    "codes": ("LinearCode", "equivalence_necessary_check", "gamma_image_code",
              "left_ideal_code"),
    "ff": ("DEFAULT_BUDGET", "InadmissibleParameters", "PrimeField", "check_admissible",
           "is_prime", "multiplicative_order", "phi_prime_power"),
    "groups": ("AbelianGroup", "DihedralGroup", "GroupElem", "Subgroup", "gamma"),
    "idempotents": ("AbelianCatalog", "CentralCatalog", "MatrixUnits",
                    "NonCentralGenerators", "abelian_catalog", "central_idempotents",
                    "matrix_units", "noncentral_generator"),
    "survey": ("SurveyRow", "abelian_min_weight", "enumerate_abelian_codes",
               "format_survey_table"),
    "verify": ("CheckResult", "run_checks", "subgroup_pair_suite"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
