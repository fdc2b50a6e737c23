"""Command-line front end.

Thin wrappers over the library: every subcommand parses its inputs, calls
the corresponding library function and prints the result.  Identical inputs
and flags produce byte-identical outputs.

Exit codes: 0 success, 1 an InputError, ValueError or OSError, 2 an
Unsupported, 3 a ResourceLimit, RecursionError or MemoryError (each error
class of ealc derives from one of these bases), 4 a verification mismatch.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys

from .syntax import (
    DEFAULT_FUEL, InputError, ResourceLimit, Unsupported, print_term, print_type,
)
from .typecheck import EAL, MUEAL, TypeCheckError, typecheck_closed

# What the subcommands call from the modules that not every subcommand
# needs.  Each subcommand loads its own (_load), so `eal compile` never
# compiles the parser, the evaluator or the extraction code.  encode and
# extract are called through the module, so a caller's replacement of one
# of their functions is seen.
_CALLS = {
    "parser": ("parse_term", "parse_type"),
    "reduction": ("engine",),
    "encode": ("encode",),
    "regcompile": ("compile_dfa", "compile_monoid", "dfa_from_json",
                   "dfa_to_json", "monoid_from_json", "regex_to_dfa"),
    "truncate": ("truncate_term", "truncate_type"),
    "extract": ("extract", "extract_lstar", "verify_dfa"),
    "semantics": ("POLICY_BASE", "POLICY_ERROR", "extract_semantic"),
}
_MODULE_OF = {attr: name for name, attrs in _CALLS.items() for attr in attrs}

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


def __getattr__(attr):
    """Bind and return a name of _CALLS, loading its module.  _load binds
    a subcommand's names this way; a caller that reads or replaces one of
    them before that (a test's patch, a tracer's wrapper) comes here."""
    name = _MODULE_OF.get(attr)
    if name is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, attr))
    module = importlib.import_module("." + name, __package__)
    globals()[attr] = value = module if attr == name else getattr(module, attr)
    return value


def _load(*modules):
    """Bind the names _CALLS lists for `modules`.  A name already bound is
    kept, so a wrapper or patch that a caller put in its place stays."""
    names = globals()
    for name in modules:
        for attr in _CALLS[name]:
            if attr not in names:
                __getattr__(attr)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args) -> int:
    _load("parser")
    term = parse_term(_read(args.file))
    expected = parse_type(args.type) if args.type else None
    ty = typecheck_closed(args.mode, term, expected)
    print(print_type(ty))
    return EXIT_OK


def _cmd_norm(args) -> int:
    _load("parser", "reduction")
    term = parse_term(_read(args.file))
    lines = []
    steps = engine(term, args.fuel)  # yields its live frames, returns the normal form
    while True:
        try:
            frames, _ = next(steps)
        except StopIteration as done:
            term = done.value
            break
        if args.show_steps:
            lines.append("-- step %d: /%s" % (len(lines) + 1,
                                              ".".join(str(i) for _, i in frames)))
    lines.append(print_term(term))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_encode(args) -> int:
    _load("encode")
    if args.string is not None:
        term = encode.church_string(args.string)
    elif args.nat is not None:
        term = encode.church_nat(args.nat)
    elif args.scott is not None:
        term = encode.scott_string(args.scott)
    else:  # --cast, which the cast subcommand sets
        term = encode.cast_term()
    _emit(print_term(term) + "\n", args.output)
    return EXIT_OK


def _cmd_promote(args) -> int:
    _load("parser", "encode")
    term = parse_term(_read(args.file))
    out = encode.promote(term, args.arity, args.levels, args.mode)
    typecheck_closed(args.mode, out)
    _emit(print_term(out) + "\n", args.output)
    return EXIT_OK


def _cmd_compile(args) -> int:
    _load("regcompile")
    if args.regex is not None:
        term = compile_dfa(regex_to_dfa(args.regex))
    elif args.dfa is not None:
        term = compile_dfa(dfa_from_json(_read(args.dfa)))
    else:
        term = compile_monoid(monoid_from_json(_read(args.monoid)))
    typecheck_closed(EAL, term)
    _emit(print_term(term) + "\n", args.output)
    return EXIT_OK


def _cmd_truncate(args) -> int:
    _load("parser", "truncate")
    term = parse_term(_read(args.file))
    ty = typecheck_closed(EAL, term)
    out = truncate_term(term)
    text = print_term(out) + "\n-- type: " + print_type(truncate_type(ty)) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def _cmd_extract(args) -> int:
    _load("parser", "regcompile", "extract")
    term = parse_term(_read(args.file))
    # one oracle, so the re-check reads the extraction's cached verdicts
    query = extract.membership_oracle(term, args.fuel)
    if args.verify is not None:
        extract.check_length_bound(args.verify)
    if args.method == "lstar":
        d = extract_lstar(term, max_len=args.max_len, seed=args.seed,
                          fuel=args.fuel, query=query)
    else:
        _load("semantics")
        policy = POLICY_BASE if args.forall_policy == "base" else POLICY_ERROR
        d = extract_semantic(term, base=args.base, policy=policy,
                             cap=args.cap, verify_len=None, fuel=args.fuel,
                             query=query)
    if args.verify is not None:
        report = verify_dfa(d, term, args.verify, query=query)
        print(report, file=sys.stderr)
        if not report.ok:
            _emit(dfa_to_json(d), args.output)
            return EXIT_VERIFY
    _emit(dfa_to_json(d), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    _load("parser", "regcompile", "extract")
    term = parse_term(_read(args.file))
    d = dfa_from_json(_read(args.dfa))
    report = verify_dfa(d, term, args.max_len, fuel=args.fuel)
    print(report)
    return EXIT_OK if report.ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    # argparse would wrap usage and help text at the terminal's width
    fixed_width = functools.partial(argparse.HelpFormatter, width=78)
    p = argparse.ArgumentParser(
        prog="eal", formatter_class=fixed_width,
        description="Elementary affine lambda-calculus toolkit: check, "
                    "normalize, encode, compile regular languages to terms, "
                    "truncate, extract automata back out.")
    p.add_argument("--version", action="version", version="%(prog)s 0.1.0")
    sub = p.add_subparsers(dest="command", required=True)

    def add_mode(sp):
        sp.add_argument("--mode", choices=[EAL, MUEAL], default=EAL,
                        help="type system: eal or mueal (with type fixpoints)")

    def add_out(sp):
        sp.add_argument("-o", "--output", default=None, metavar="FILE",
                        help="write to FILE instead of stdout")

    def add_fuel(sp):
        sp.add_argument("--fuel", type=int, default=DEFAULT_FUEL,
                        help="reduction step budget (default %(default)s)")

    sp = sub.add_parser("check", help="typecheck a term file")
    sp.add_argument("file")
    sp.add_argument("--type", default=None, help="expected type (ascription)")
    add_mode(sp)
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("norm", help="normalize a term file")
    sp.add_argument("file")
    sp.add_argument("--show-steps", action="store_true",
                    help="print each contracted redex path as a comment")
    add_fuel(sp)
    add_out(sp)
    sp.set_defaults(fn=_cmd_norm)

    sp = sub.add_parser("encode", help="emit standard encodings")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--string", metavar="W", help="Church string over {0,1}")
    g.add_argument("--nat", type=int, metavar="N", help="Church numeral")
    g.add_argument("--scott", metavar="W", help="Scott string (mueal)")
    g.add_argument("--cast", action="store_true",
                   help="the Scott-to-Church conversion term")
    add_out(sp)
    sp.set_defaults(fn=_cmd_encode)

    sp = sub.add_parser("cast", help="emit the Scott-to-Church cast term")
    add_out(sp)
    sp.set_defaults(fn=_cmd_encode, cast=True, string=None, nat=None,
                    scott=None)

    sp = sub.add_parser("promote", help="k-fold functorial promotion of a closed term")
    sp.add_argument("file")
    sp.add_argument("--arity", type=int, required=True,
                    help="number of arrow arguments to lift")
    sp.add_argument("--levels", type=int, required=True,
                    help="how many bangs to add")
    add_mode(sp)
    add_out(sp)
    sp.set_defaults(fn=_cmd_promote)

    sp = sub.add_parser("compile", help="compile a regular language to a term")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--regex", metavar="R")
    g.add_argument("--dfa", metavar="FILE", help="DFA in JSON form")
    g.add_argument("--monoid", metavar="FILE", help="monoid presentation in JSON form")
    add_out(sp)
    sp.set_defaults(fn=_cmd_compile)

    sp = sub.add_parser("truncate", help="truncate a typed term at depth 0")
    sp.add_argument("file")
    add_out(sp)
    sp.set_defaults(fn=_cmd_truncate)

    sp = sub.add_parser("extract", help="recover the automaton a decider denotes")
    sp.add_argument("file")
    sp.add_argument("--method", choices=["lstar", "semantic"], required=True)
    sp.add_argument("--max-len", type=int, default=10,
                    help="exhaustive equivalence bound for lstar (default 10)")
    sp.add_argument("--base", type=int, default=2,
                    help="base set size for the semantic method (default 2)")
    sp.add_argument("--forall-policy", choices=["error", "base"], default="error")
    sp.add_argument("--cap", type=int, default=10 ** 6,
                    help="cell cap on enumerated spaces (default 1000000)")
    sp.add_argument("--verify", type=int, default=None, metavar="L",
                    help="re-check the result against the term up to length L")
    sp.add_argument("--seed", type=int, default=0)
    add_fuel(sp)
    add_out(sp)
    sp.set_defaults(fn=_cmd_extract)

    sp = sub.add_parser("verify", help="compare a DFA with a deciding term")
    sp.add_argument("file", help="term file")
    sp.add_argument("--dfa", required=True, metavar="FILE")
    sp.add_argument("--max-len", type=int, default=10)
    add_fuel(sp)
    sp.set_defaults(fn=_cmd_verify)

    for sp in sub.choices.values():
        sp.formatter_class = fixed_width
    # argparse 3.13 puts the "..." on the choices' line.  Set last, as
    # add_subparsers builds each subcommand's prog from the usage it sees.
    indent = "\n" + " " * len("usage: eal ")
    p.usage = "%%(prog)s [-h] [--version]%s{%s}%s..." % (
        indent, ",".join(sub.choices), indent)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TypeCheckError as e:
        print(e, file=sys.stderr)  # already formatted as path: kind: message
        return EXIT_INPUT
    except (InputError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except Unsupported as e:
        print("unsupported: %s" % e, file=sys.stderr)
        return EXIT_UNSUPPORTED
    except RecursionError:
        # CPython's own text depends on where the overflow happened, not on
        # the input, so the message is fixed
        print("resource limit: maximum recursion depth exceeded", file=sys.stderr)
        return EXIT_RESOURCE
    except (MemoryError, ResourceLimit) as e:
        print("resource limit: %s" % (str(e) or "out of memory"), file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
