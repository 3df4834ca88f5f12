"""Renner monoid computation for three matrix families.

The package models each monoid faithfully inside the rook monoid of
partial injections, equips it with a finite Coxeter engine, the
cross-section lattice with type maps, canonical normal forms, a length
function counting reflection letters, and verified monoid presentations.

Each public name is imported from its module on first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_HOME = {
    "DEFAULT_ENUMERATION_CAP": "model",
    "CompletenessReport": "presentation",
    "CrossSectionLattice": "lattice",
    "EnumerationCapExceeded": "model",
    "GeneratorName": "model",
    "LambdaElement": "lattice",
    "MonoidFamily": "model",
    "NormalForm": "monoid",
    "OutsideMonoidError": "monoid",
    "PartialInjection": "model",
    "Presentation": "presentation",
    "Relation": "presentation",
    "RelationReport": "presentation",
    "RennerMonoid": "monoid",
    "TypeMap": "lattice",
    "WeylGroup": "coxeter",
    "braid_word": "presentation",
    "build_generators": "model",
    "coxeter_pairs": "presentation",
    "enumerate_monoid": "model",
    "generate_explicit": "presentation",
    "generate_full": "presentation",
    "generate_reduced": "presentation",
    "relation_lines": "presentation",
    "verify_completeness": "presentation",
    "verify_relations": "presentation",
    "word_str": "presentation",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
