"""Concrete syntax for terms and types.

ASCII grammar (see README for the full table): ``\\x:T. t``, ``\\!x:T. t``
(argument type !T), juxtaposition application, ``!t``, ``/\\a. t``,
``t [T]``, ``fold[T] t``, ``unfold t``; types ``T -o U`` (right assoc),
``!T``, ``forall a. T``, ``mu a. T``, ``1``.  Comments run from ``--`` to
end of line.

Sugar is desugared on the spot:

    let !x:S = u in t        ~>  (\\!x:S. t) u
    <u:S, v:T>               ~>  /\\a. \\f:(S -o T -o a). f u v
    let[R] <x:S, y:T> = u in t  ~>  u [R] (\\x:S. \\y:T. t)
    case[R] u of {0 x -> a | 1 y -> b | e -> c}
                             ~>  (unfold u) [R] (\\x:StrS. a) (\\y:StrS. b) c

The bracketed/colon annotations may be omitted, in which case fresh type
variables stand in for them; such terms parse and print fine but will not
typecheck until annotated.

Named type abbreviations are expanded at parse time: Bool, Str, Str[T],
Nat, StrS, 1 and Mk (M2, M3, ...).
"""

from __future__ import annotations

import re

from .encode import BOOL, NAT, STR, STRS, monoid_ty, str_of
from .syntax import (
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, Lam, Mu, Term, Type,
    TyApp, TyLam, TyVar, TypeStructureError, UNIT, Unfold, Var, fresh_name,
)


class ParseError(Exception):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = "%d:%d: %s" % (line, col, msg)
        super().__init__(msg)
        self.line = line
        self.col = col


# The token grammar: identifiers and keywords, then the symbols.  One
# pattern reads the whole text: whitespace and comments match with no
# group, a token as group 1, and any other character as a one-character
# group of its own, which _tokenize rejects.
_TOKEN = r"[a-zA-Z_][a-zA-Z0-9_']*|/\\|-o|->|\\!|[\\.:!()\[\]<>,={}|01]"
_TOKEN_RE = re.compile(r"[ \t\r\n]+|--[^\n]*|(%s|.)" % _TOKEN, re.DOTALL)
_LEXEME_RE = re.compile(_TOKEN)
_KEYWORDS = {"let", "in", "case", "of", "fold", "unfold", "forall", "mu"}


def _tokenize(text):
    """The lexemes of text, ending with "" for the end of the text, and the
    set of those that are identifiers (names that are not keywords)."""
    lexemes = list(filter(None, _TOKEN_RE.findall(text)))
    names, bad = set(), []
    for lexeme in set(lexemes):
        if not _LEXEME_RE.fullmatch(lexeme):
            bad.append(lexeme)
        elif (lexeme[0].isalpha() or lexeme[0] == "_") and lexeme not in _KEYWORDS:
            names.add(lexeme)
    if bad:
        i = min(map(lexemes.index, bad))
        raise ParseError("unexpected character %r" % lexemes[i], *_line_col(text, i))
    lexemes.append("")
    return lexemes, names


def _line_col(text, i):
    """The 1-based line and column where lexeme i of text starts (the end
    of the text for the final "")."""
    pos = len(text)
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex:
            if not i:
                pos = m.start()
                break
            i -= 1
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# Named type abbreviations, as ealc.encode builds them.  Str[T] and Mk take
# a parameter and are expanded in type_atom.
_FIXED_ABBREVS = {"Bool": BOOL, "Str": STR, "Nat": NAT, "StrS": STRS}

_MONOID_RE = re.compile(r"^M([1-9][0-9]*)$")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.lexemes, self.names = _tokenize(text)
        self.i = 0
        self.fresh = 0
        self.types = {}  # annotation lexemes -> the one Type parsed from them

    def peek(self):
        """The current token's lexeme."""
        return self.lexemes[self.i]

    def next(self):
        """Consume the current token and return its lexeme."""
        self.i += 1
        return self.lexemes[self.i - 1]

    def err(self, msg):
        line, col = _line_col(self.text, self.i)
        raise ParseError("%s (at %r)" % (msg, self.peek() or "end of input"), line, col)

    def expect(self, lexeme):
        if self.lexemes[self.i] != lexeme:
            self.err("expected %r" % lexeme)
        self.i += 1

    def at(self, lexeme):
        return self.lexemes[self.i] == lexeme

    def at_end(self):
        return self.i == len(self.lexemes) - 1

    def fresh_tyvar(self) -> Type:
        self.fresh += 1
        return TyVar("_T%d" % self.fresh)

    def ident(self):
        if self.lexemes[self.i] not in self.names:
            self.err("expected an identifier")
        return self.next()

    # -- types -------------------------------------------------------------

    def type_(self) -> Type:
        if self.at("forall") or self.at("mu"):
            kw = self.next()
            var = self.ident()
            self.expect(".")
            body = self.type_()
            try:
                return Forall(var, body) if kw == "forall" else Mu(var, body)
            except TypeStructureError as e:
                raise ParseError(str(e)) from None
        left = self.type_atom()
        if self.at("-o"):
            self.next()
            return Arrow(left, self.type_())
        return left

    def type_atom(self) -> Type:
        lex = self.lexemes[self.i]
        if lex == "!":
            self.next()
            return BangType(self.type_atom())
        if lex == "(":
            self.next()
            t = self.type_()
            self.expect(")")
            return t
        if lex == "1":
            self.next()
            return UNIT
        if lex in self.names:
            self.next()
            if lex == "Str" and self.at("["):
                self.next()
                arg = self.type_()
                self.expect("]")
                return str_of(arg)
            if lex in _FIXED_ABBREVS:
                return _FIXED_ABBREVS[lex]
            m = _MONOID_RE.match(lex)
            if m:
                return monoid_ty(int(m.group(1)))
            return TyVar(lex)
        self.err("expected a type")

    def annotation(self) -> Type:
        """A type written in a term.  Annotations with the same lexemes
        share one Type object, which the type checker compares by identity
        before it compares structure."""
        i = self.i
        ty = self.type_()
        return self.types.setdefault(tuple(self.lexemes[i:self.i]), ty)

    def opt_annot(self) -> Type | None:
        if self.at(":"):
            self.next()
            return self.annotation()
        return None

    def bracket_annot(self) -> Type | None:
        if self.at("["):
            self.next()
            t = self.annotation()
            self.expect("]")
            return t
        return None

    def annot_or_fresh(self, t: Type | None) -> Type:
        return t if t is not None else self.fresh_tyvar()

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        lex = self.peek()
        if lex == "\\":
            self.next()
            x = self.ident()
            ty = self.opt_annot()
            self.expect(".")
            return Lam(x, ty, self.term())
        if lex == "\\!":
            self.next()
            x = self.ident()
            ty = self.opt_annot()
            self.expect(".")
            return BangLam(x, ty, self.term())
        if lex == "/\\":
            self.next()
            a = self.ident()
            self.expect(".")
            return TyLam(a, self.term())
        if lex == "let":
            return self.let_()
        if lex == "case":
            return self.case_()
        return self.app()

    def let_(self) -> Term:
        self.expect("let")
        result_ty = self.bracket_annot()
        if self.at("!"):
            if result_ty is not None:
                self.err("let !x takes no result annotation")
            self.next()
            x = self.ident()
            ty = self.opt_annot()
            self.expect("=")
            u = self.term()
            self.expect("in")
            body = self.term()
            return App(BangLam(x, self.annot_or_fresh(ty), body), u)
        self.expect("<")
        x = self.ident()
        xty = self.annot_or_fresh(self.opt_annot())
        self.expect(",")
        y = self.ident()
        yty = self.annot_or_fresh(self.opt_annot())
        self.expect(">")
        self.expect("=")
        u = self.term()
        self.expect("in")
        body = self.term()
        theta = result_ty if result_ty is not None else self.fresh_tyvar()
        return App(TyApp(u, theta), Lam(x, xty, Lam(y, yty, body)))

    def case_(self) -> Term:
        self.expect("case")
        theta = self.bracket_annot()
        theta = theta if theta is not None else self.fresh_tyvar()
        scrutinee = self.term()
        self.expect("of")
        self.expect("{")
        self.expect("0")
        x = self.ident()
        self.expect("->")
        a = self.term()
        self.expect("|")
        self.expect("1")
        y = self.ident()
        self.expect("->")
        b = self.term()
        self.expect("|")
        self.expect("e")
        self.expect("->")
        c = self.term()
        self.expect("}")
        head = TyApp(Unfold(scrutinee), theta)
        return App(App(App(head, Lam(x, STRS, a)), Lam(y, STRS, b)), c)

    def app(self) -> Term:
        t = self.prefix()
        while True:
            lex = self.lexemes[self.i]
            if lex == "[":
                self.next()
                ty = self.annotation()
                self.expect("]")
                t = TyApp(t, ty)
            elif lex in ("(", "\\", "\\!", "/\\", "!") or lex in self.names \
                    or lex in ("fold", "unfold", "<"):
                t = App(t, self.prefix())
            else:
                return t

    def prefix(self) -> Term:
        lex = self.peek()
        if lex == "!":
            self.next()
            return Bang(self.prefix())
        if lex == "fold":
            self.next()
            self.expect("[")
            ty = self.annotation()
            self.expect("]")
            return Fold(ty, self.prefix())
        if lex == "unfold":
            self.next()
            return Unfold(self.prefix())
        return self.atom()

    def atom(self) -> Term:
        lex = self.lexemes[self.i]
        if lex == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        if lex == "<":
            self.next()
            u = self.term()
            uty = self.annot_or_fresh(self.opt_annot())
            self.expect(",")
            v = self.term()
            vty = self.annot_or_fresh(self.opt_annot())
            self.expect(">")
            a = fresh_name("_p", uty.ftv | vty.ftv | u.ftv | v.ftv)
            f = fresh_name("_f", u.fvs | v.fvs)
            return TyLam(a, Lam(f, Arrow(uty, Arrow(vty, TyVar(a))),
                                App(App(Var(f), u), v)))
        if lex in self.names:
            self.next()
            return Var(lex)
        self.err("expected a term")


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    if not p.at_end():
        p.err("trailing input")
    return t


def parse_type(text: str) -> Type:
    p = _Parser(text)
    t = p.type_()
    if not p.at_end():
        p.err("trailing input")
    return t
