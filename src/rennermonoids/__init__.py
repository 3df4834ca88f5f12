"""Renner monoid computation for three matrix families.

The package models each monoid faithfully inside the rook monoid of
partial injections, equips it with a finite Coxeter engine, the
cross-section lattice with type maps, canonical normal forms, a length
function counting reflection letters, and verified monoid presentations.
"""

from .coxeter import WeylGroup
from .lattice import CrossSectionLattice, LambdaElement, TypeMap
from .model import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    GeneratorName,
    MonoidFamily,
    PartialInjection,
    build_generators,
    enumerate_monoid,
)
from .monoid import NormalForm, OutsideMonoidError, RennerMonoid
from .presentation import (
    CompletenessReport,
    Presentation,
    Relation,
    RelationReport,
    braid_word,
    coxeter_pairs,
    generate_explicit,
    generate_full,
    generate_reduced,
    relation_lines,
    verify_completeness,
    verify_relations,
    word_str,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "CompletenessReport",
    "CrossSectionLattice",
    "EnumerationCapExceeded",
    "GeneratorName",
    "LambdaElement",
    "MonoidFamily",
    "NormalForm",
    "OutsideMonoidError",
    "PartialInjection",
    "Presentation",
    "Relation",
    "RelationReport",
    "RennerMonoid",
    "TypeMap",
    "WeylGroup",
    "braid_word",
    "build_generators",
    "coxeter_pairs",
    "enumerate_monoid",
    "generate_explicit",
    "generate_full",
    "generate_reduced",
    "relation_lines",
    "verify_completeness",
    "verify_relations",
    "word_str",
]
