"""ealc: a toolkit for the elementary affine lambda-calculus.

Parse, typecheck and normalize terms (with or without type fixpoints),
build the standard encodings, compile regular languages into typed
recognizers, truncate away the exponentials, evaluate in finite type
frames, and extract the automaton a deciding term denotes.
"""

from .syntax import (
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu, Term, Type,
    TyApp, TyLam, TyVar, TypeStructureError, UNIT, Unfold, Var, alpha_eq,
    check_stratification, depth_map, erase_annotations, is_unit, print_term,
    print_type, split_occurrences, subst_term, subst_type, subst_type_in_term,
    type_alpha_eq,
)
from .parser import ParseError, parse_term, parse_type
from .typecheck import (
    Context, EAL, MUEAL, TypeCheckError, classify_type, typecheck,
    typecheck_closed,
)
from .reduction import (
    DecodeError, FuelExhausted, decode_church_nat, decode_church_string,
    decode_scott_string, is_normal, normalize, read_bool, step,
)
from .encode import (
    BOOL, NAT, STR, STRS, assemble_fexptime, bool_term, cast_term,
    church_nat, church_string, monoid_elem, monoid_ty, pair, proj, promote,
    scott_string, str_of, tensor,
)
from .regcompile import (
    AutomatonError, Dfa, MonoidPresentation, RegexError, compile_dfa,
    compile_monoid, dfa, dfa_equiv, dfa_from_json, dfa_to_json, minimize,
    regex_to_dfa, transition_monoid,
)
from .truncate import TruncationError, truncate_term, truncate_type
from .semantics import (
    CapExceeded, EndoMonoid, EndoPairTable, FiniteSet, FrameValue,
    SemanticsUnsupported, eval_term, interp_type, phi_entry, phi_of_word,
)
from .extract import (
    Decomposition, UnsupportedShape, VerificationFailed, decompose_bang_input,
    extract_lstar, extract_semantic, verify_dfa,
)

__version__ = "0.1.0"
