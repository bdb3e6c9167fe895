"""Galois-orbit invariants of finite groups.

Orbit lengths of unit groups acting on conjugacy classes, and the rank of
the central units of the integral group ring computed from class data or
from an ordinary character table.
"""

from .altcount import frobenius_rank, frobenius_ranks, prop8_lower_bound
from .chartab import (
    CharacterTable,
    brauer_crosscheck,
    char_report,
    fixture_names,
    fixture_table,
    parse_table,
)
from .classtheory import GaloisReport, analyze
from .cyclotomic import CyclotomicNumber, FieldClass, conjugate, galois_apply, zeta
from .errors import (
    GalorbError,
    InputError,
    ResourceLimitError,
    UncertifiedError,
)
from .matgroup import (
    class_lower_bound,
    coprime_power_charpoly_count,
    element_order,
    projective_line_action,
    singer_element,
)
from .permgroup import (
    ClassStructure,
    GroupSpec,
    alternating_class_structure,
    conjugacy_classes,
    cyclic_class_structure,
    group_order,
)
from .screening import exception_set, singer_order

__all__ = [
    "CyclotomicNumber",
    "FieldClass",
    "zeta",
    "galois_apply",
    "conjugate",
    "GroupSpec",
    "ClassStructure",
    "group_order",
    "conjugacy_classes",
    "alternating_class_structure",
    "cyclic_class_structure",
    "GaloisReport",
    "analyze",
    "CharacterTable",
    "parse_table",
    "fixture_names",
    "fixture_table",
    "char_report",
    "brauer_crosscheck",
    "frobenius_rank",
    "frobenius_ranks",
    "prop8_lower_bound",
    "exception_set",
    "singer_order",
    "singer_element",
    "element_order",
    "coprime_power_charpoly_count",
    "class_lower_bound",
    "projective_line_action",
    "GalorbError",
    "InputError",
    "ResourceLimitError",
    "UncertifiedError",
]

__version__ = "0.1.0"
