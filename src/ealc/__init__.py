"""ealc: a toolkit for the elementary affine lambda-calculus.

Parse, typecheck and normalize terms (with or without type fixpoints),
build the standard encodings, compile regular languages into typed
recognizers, truncate away the exponentials, evaluate in finite type
frames, and extract the automaton a deciding term denotes.

The names below load their module on first use (PEP 562), so a program
that needs only part of the toolkit, such as one `eal` subcommand, never
compiles the rest.
"""

import importlib

_EXPORTS = {
    "syntax": (
        "App", "Arrow", "Bang", "BangLam", "BangType", "Fold", "Forall",
        "InputError", "Lam", "Mu", "ResourceLimit", "Term", "Type", "TyApp",
        "TyLam", "TyVar", "TypeStructureError", "UNIT", "Unfold", "Unsupported",
        "Var", "alpha_eq", "check_stratification", "erase_annotations",
        "is_unit", "print_term", "print_type", "subst_term", "subst_type",
        "subst_type_in_term", "type_alpha_eq",
    ),
    "parser": ("ParseError", "parse_term", "parse_type"),
    "typecheck": (
        "Context", "EAL", "MUEAL", "TypeCheckError", "classify_type",
        "typecheck", "typecheck_closed",
    ),
    "reduction": (
        "DecodeError", "FuelExhausted", "decode_church_nat",
        "decode_church_string", "decode_scott_string", "is_normal",
        "normalize", "read_bool", "step",
    ),
    "encode": (
        "BOOL", "NAT", "STR", "STRS", "assemble_fexptime", "bool_term",
        "cast_term", "church_nat", "church_string", "monoid_elem", "monoid_ty",
        "pair", "proj", "promote", "scott_string", "str_of", "tensor",
    ),
    "regcompile": (
        "AutomatonError", "Dfa", "MonoidPresentation", "RegexError",
        "compile_dfa", "compile_monoid", "dfa", "dfa_equiv", "dfa_from_json",
        "dfa_to_json", "minimize", "regex_to_dfa", "transition_monoid",
    ),
    "truncate": ("TruncationError", "truncate_term", "truncate_type"),
    "semantics": (
        "CapExceeded", "EndoMonoid", "EndoPairTable", "FiniteSet", "FrameValue",
        "SemanticsUnsupported", "eval_term", "extract_semantic", "interp_type",
        "phi_entry", "phi_of_word",
    ),
    "extract": (
        "Decomposition", "UnsupportedShape", "VerificationFailed",
        "decompose_bang_input", "extract_lstar", "verify_dfa",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, or a submodule, loaded on first use."""
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(importlib.import_module("." + module, __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))


# `typecheck` names both a module and its checker.  Loading the module sets
# the package attribute to the module, so the checker is bound here, after
# that load; every subcommand loads typecheck anyway.
typecheck = __getattr__("typecheck")
