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
from array import array

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


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+|--[^\n]*)
  | (?P<name>[a-zA-Z_][a-zA-Z0-9_']*)
  | (?P<sym>/\\|-o|->|\\!|[\\.:!()\[\]<>,={}|]|0|1)
""", re.VERBOSE)

_KEYWORDS = {"let", "in", "case", "of", "fold", "unfold", "forall", "mu"}


def _tokenize(text):
    """The tokens of text as three columns: kinds, lexemes and start
    offsets, ending with an "eof" token at the end of the text."""
    kinds, lexemes, starts = [], [], array("q")
    shared = {}  # one string object per distinct lexeme
    match = _TOKEN_RE.match
    pos, end = 0, len(text)
    while pos < end:
        m = match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], *_line_col(text, pos))
        kind = m.lastgroup
        if kind != "ws":
            lexeme = m.group()
            lexeme = shared.setdefault(lexeme, lexeme)
            kinds.append("kw" if lexeme in _KEYWORDS else kind)
            lexemes.append(lexeme)
            starts.append(pos)
        pos = m.end()
    kinds.append("eof")
    lexemes.append("")
    starts.append(pos)
    return kinds, lexemes, starts


def _line_col(text, pos):
    """The 1-based line and column of offset pos in text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# Named type abbreviations, as ealc.encode builds them.  Str[T] and Mk take
# a parameter and are expanded in type_atom.
_FIXED_ABBREVS = {"Bool": BOOL, "Str": STR, "Nat": NAT, "StrS": STRS}

_MONOID_RE = re.compile(r"^M([1-9][0-9]*)$")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.kinds, self.lexemes, self.starts = _tokenize(text)
        self.i = 0
        self.fresh = 0

    def peek(self):
        """The current token's lexeme."""
        return self.lexemes[self.i]

    def next(self):
        """Consume the current token and return its lexeme."""
        self.i += 1
        return self.lexemes[self.i - 1]

    def err(self, msg):
        line, col = _line_col(self.text, self.starts[self.i])
        raise ParseError("%s (at %r)" % (msg, self.peek() or "end of input"), line, col)

    def expect(self, lexeme):
        if self.lexemes[self.i] != lexeme:
            self.err("expected %r" % lexeme)
        self.i += 1

    def at(self, lexeme):
        return self.lexemes[self.i] == lexeme

    def at_kind(self, kind):
        return self.kinds[self.i] == kind

    def fresh_tyvar(self) -> Type:
        self.fresh += 1
        return TyVar("_T%d" % self.fresh)

    def ident(self):
        if self.kinds[self.i] != "name":
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
        kind, lex = self.kinds[self.i], self.lexemes[self.i]
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
        if kind == "name":
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

    def opt_annot(self) -> Type | None:
        if self.at(":"):
            self.next()
            return self.type_()
        return None

    def bracket_annot(self) -> Type | None:
        if self.at("["):
            self.next()
            t = self.type_()
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
            kind, lex = self.kinds[self.i], self.lexemes[self.i]
            if lex == "[":
                self.next()
                ty = self.type_()
                self.expect("]")
                t = TyApp(t, ty)
            elif lex in ("(", "\\", "\\!", "/\\", "!") or kind == "name" \
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
            ty = self.type_()
            self.expect("]")
            return Fold(ty, self.prefix())
        if lex == "unfold":
            self.next()
            return Unfold(self.prefix())
        return self.atom()

    def atom(self) -> Term:
        kind, lex = self.kinds[self.i], self.lexemes[self.i]
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
        if kind == "name" and lex not in ("fold", "unfold"):
            self.next()
            return Var(lex)
        self.err("expected a term")


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    if not p.at_kind("eof"):
        p.err("trailing input")
    return t


def parse_type(text: str) -> Type:
    p = _Parser(text)
    t = p.type_()
    if not p.at_kind("eof"):
        p.err("trailing input")
    return t
