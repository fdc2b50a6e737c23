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
    App, Arrow, Bang, BangLam, BangType, Fold, Forall, InputError, Lam, Mu, Term,
    Type, TyApp, TyLam, TyVar, TypeStructureError, UNIT, Unfold, Var, fresh_name,
)


class ParseError(InputError):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = "%d:%d: %s" % (line, col, msg)
        super().__init__(msg)
        self.line = line
        self.col = col


# The token grammar: identifiers and keywords, then the symbols.  One
# pattern reads the whole text, one lexeme per match: the whitespace and
# comments before it, then a token, any other character as a lexeme of its
# own, which _tokenize rejects, or the empty lexeme at the end of the text
# (twice when the text ends in whitespace or a comment: once after it, and
# once as the empty match that may follow).  The last group matches at
# every position, so the greedy prefix is never given back.
_TOKEN = r"[a-zA-Z_][a-zA-Z0-9_']*|/\\|-o|->|\\!|[\\.:!()\[\]<>,={}|01]"
_TOKEN_RE = re.compile(r"[ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*(%s|.|\Z)" % _TOKEN,
                       re.DOTALL)
_LEXEME_RE = re.compile(_TOKEN)
_KEYWORDS = {"let", "in", "case", "of", "fold", "unfold", "forall", "mu"}


def _tokenize(text):
    """The lexemes of text, ending with "" for the end of the text, and the
    set of those that are identifiers (names that are not keywords)."""
    lexemes = _TOKEN_RE.findall(text)
    if len(lexemes) > 1 and not lexemes[-2]:
        del lexemes[-1]
    names, bad = set(), []
    for lexeme in set(lexemes):
        if not _LEXEME_RE.fullmatch(lexeme):
            if lexeme:
                bad.append(lexeme)
        elif (lexeme[0].isalpha() or lexeme[0] == "_") and lexeme not in _KEYWORDS:
            names.add(lexeme)
    if bad:
        i = min(map(lexemes.index, bad))
        raise ParseError("unexpected character %r" % lexemes[i], *_line_col(text, i))
    return lexemes, names


def _line_col(text, i):
    """The 1-based line and column where lexeme i of text starts (the end
    of the text for the final "")."""
    for m in _TOKEN_RE.finditer(text):
        if not i:
            pos = m.start(1)
            break
        i -= 1
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# Named type abbreviations, as ealc.encode builds them.  Str[T] and Mk take
# a parameter and are expanded in type_.
_FIXED_ABBREVS = {"Bool": BOOL, "Str": STR, "Nat": NAT, "StrS": STRS}

_MONOID_RE = re.compile(r"^M([1-9][0-9]*)$")

# The lexemes besides identifiers that start one more argument of an
# application; a lambda there is reported as "expected a term".
_ARGUMENT_START = frozenset(("(", "\\", "\\!", "/\\", "!", "fold", "unfold", "<"))

# Both parsers run on an explicit stack of unfinished constructions, so the
# nesting depth of a text is bounded by memory, not by the interpreter's
# recursion limit.  A frame is a tuple whose first field says what it
# builds; the rest is what the construction has read so far.  The type
# frames that have read nothing are shared and told apart by identity.
_ARROW_TY, _FORALL_TY, _MU_TY = range(3)
_BANG_TY, _PAREN_TY, _STR_TY = (3,), (4,), (5,)
(_LAM, _BANG_LAM, _TY_LAM, _GROUP, _APP, _BANG, _FOLD, _UNFOLD, _LET_BANG_U,
 _LET_BANG_BODY, _LET_PAIR_U, _LET_PAIR_BODY, _CASE_SCRUTINEE, _CASE_0,
 _CASE_1, _CASE_E, _PAIR_U, _PAIR_V) = range(18)
_TERM, _ARGUMENT, _ATOM = range(3)  # where term() stands, besides finishing


class _Parser:
    def __init__(self, text):
        self.text = text
        self.lexemes, self.names = _tokenize(text)
        self.fresh = 0
        self.types = {}  # annotation lexemes -> the one Type parsed from them
        self.atoms = {"1": UNIT}  # atomic type lexemes -> their one Type

    def err(self, msg, i):
        line, col = _line_col(self.text, i)
        raise ParseError("%s (at %r)" % (msg, self.lexemes[i] or "end of input"),
                         line, col)

    def expect(self, lexeme, i):
        """The index after lexeme, which must stand at i."""
        if self.lexemes[i] != lexeme:
            self.err("expected %r" % lexeme, i)
        return i + 1

    def ident(self, i):
        """The identifier at i and the index after it."""
        lex = self.lexemes[i]
        if lex not in self.names:
            self.err("expected an identifier", i)
        return lex, i + 1

    def fresh_tyvar(self) -> Type:
        self.fresh += 1
        return TyVar("_T%d" % self.fresh)

    # -- types -------------------------------------------------------------

    def type_(self, i):
        """The type at i and the index after it.  forall and mu reach as far
        right as they can, -o associates to the right and ! binds tightest."""
        lexemes, names, atoms = self.lexemes, self.names, self.atoms
        stack = []
        while True:
            # a type starts: its quantifiers, then its first atom's bangs
            lex = lexemes[i]
            while lex == "forall" or lex == "mu":
                var, i = self.ident(i + 1)
                i = self.expect(".", i)
                stack.append((_FORALL_TY if lex == "forall" else _MU_TY, var))
                lex = lexemes[i]
            while lex == "!":
                stack.append(_BANG_TY)
                i += 1
                lex = lexemes[i]
            if lex == "(":
                stack.append(_PAREN_TY)
                i += 1
                continue
            i += 1
            ty = atoms.get(lex)
            if ty is None:
                if lex not in names:
                    self.err("expected a type", i - 1)
                if lex == "Str" and lexemes[i] == "[":
                    stack.append(_STR_TY)
                    i += 1
                    continue
                ty = _FIXED_ABBREVS.get(lex)
                if ty is None:
                    m = lex[0] == "M" and _MONOID_RE.match(lex)
                    ty = monoid_ty(int(m.group(1))) if m else TyVar(lex)
                if lex != "Str":  # Str[ needs the test above each time
                    atoms[lex] = ty
            # ty is an atom: it takes its bangs and is either the left side
            # of an arrow or the end of the constructions above it, up to a
            # parenthesis or Str[, which make an atom again
            while True:
                while stack and stack[-1] is _BANG_TY:
                    stack.pop()
                    ty = BangType(ty)
                if lexemes[i] == "-o":
                    stack.append((_ARROW_TY, ty))
                    i += 1
                    break
                while stack:
                    frame = stack.pop()
                    if frame is _PAREN_TY:
                        i = self.expect(")", i)
                        break
                    if frame is _STR_TY:
                        i = self.expect("]", i)
                        ty = str_of(ty)
                        break
                    kind, left_or_var = frame
                    if kind == _ARROW_TY:
                        ty = Arrow(left_or_var, ty)
                    else:
                        try:
                            ty = (Forall if kind == _FORALL_TY else Mu)(left_or_var, ty)
                        except TypeStructureError as e:
                            raise ParseError(str(e)) from None
                else:
                    return ty, i

    def annotation(self, i):
        """The type written in a term at i, and the index after it.
        Annotations with the same lexemes share one Type object, which the
        type checker compares by identity before it compares structure."""
        ty, j = self.type_(i)
        return self.types.setdefault(tuple(self.lexemes[i:j]), ty), j

    def opt_annot(self, i):
        """An optional ": T" at i (None when absent) and the index after it."""
        if self.lexemes[i] == ":":
            return self.annotation(i + 1)
        return None, i

    def bracket_annot(self, i):
        """An optional "[T]" at i (None when absent) and the index after it."""
        if self.lexemes[i] == "[":
            ty, i = self.annotation(i + 1)
            return ty, self.expect("]", i)
        return None, i

    # -- terms -------------------------------------------------------------

    def term(self, i):
        """The term at i and the index after it.  The parser stands in one
        of four places: a term starts (binders and sugar push their frames),
        an argument of an application starts (prefixes push theirs), an
        argument is an atom (it takes its prefixes and joins the
        application), or a term is finished (it completes the frames above
        it until one needs another subterm)."""
        lexemes, names = self.lexemes, self.names
        stack = []
        where = _TERM
        while True:
            if where == _TERM:
                lex = lexemes[i]
                while True:
                    if lex == "\\" or lex == "\\!":
                        x = lexemes[i + 1]
                        if x not in names:
                            self.err("expected an identifier", i + 1)
                        i += 2
                        if lexemes[i] == ":":
                            ty, i = self.annotation(i + 1)
                        else:
                            ty = None
                        if lexemes[i] != ".":
                            self.err("expected '.'", i)
                        i += 1
                        stack.append((_LAM if lex == "\\" else _BANG_LAM, x, ty))
                    elif lex == "/\\":
                        a, i = self.ident(i + 1)
                        i = self.expect(".", i)
                        stack.append((_TY_LAM, a))
                    elif lex == "let":
                        result_ty, i = self.bracket_annot(i + 1)
                        if lexemes[i] == "!":
                            if result_ty is not None:
                                self.err("let !x takes no result annotation", i)
                            x, i = self.ident(i + 1)
                            ty, i = self.opt_annot(i)
                            stack.append((_LET_BANG_U, x, ty))
                        else:
                            i = self.expect("<", i)
                            x, i = self.ident(i)
                            xty, i = self.opt_annot(i)
                            xty = xty if xty is not None else self.fresh_tyvar()
                            i = self.expect(",", i)
                            y, i = self.ident(i)
                            yty, i = self.opt_annot(i)
                            yty = yty if yty is not None else self.fresh_tyvar()
                            i = self.expect(">", i)
                            stack.append((_LET_PAIR_U, result_ty, x, xty, y, yty))
                        i = self.expect("=", i)
                    elif lex == "case":
                        theta, i = self.bracket_annot(i + 1)
                        theta = theta if theta is not None else self.fresh_tyvar()
                        stack.append((_CASE_SCRUTINEE, theta))
                    else:
                        break
                    lex = lexemes[i]
                stack.append((_APP, None))
                where = _ARGUMENT
            if where == _ARGUMENT:
                lex = lexemes[i]
                while True:
                    if lex == "!":
                        stack.append((_BANG,))
                        i += 1
                    elif lex == "fold":
                        ty, i = self.annotation(self.expect("[", i + 1))
                        i = self.expect("]", i)
                        stack.append((_FOLD, ty))
                    elif lex == "unfold":
                        stack.append((_UNFOLD,))
                        i += 1
                    else:
                        break
                    lex = lexemes[i]
                if lex in names:
                    t = Var(lex)
                    i += 1
                elif lex == "(" or lex == "<":
                    stack.append((_GROUP if lex == "(" else _PAIR_U,))
                    i += 1
                    where = _TERM
                    continue
                else:
                    self.err("expected a term", i)
                where = _ATOM
            if where == _ATOM:
                while True:
                    frame = stack.pop()
                    kind = frame[0]
                    if kind == _APP:
                        break
                    if kind == _BANG:
                        t = Bang(t)
                    elif kind == _FOLD:
                        t = Fold(frame[1], t)
                    else:
                        t = Unfold(t)
                if frame[1] is not None:
                    t = App(frame[1], t)
                lex = lexemes[i]
                while lex == "[":
                    ty, i = self.annotation(i + 1)
                    i = self.expect("]", i)
                    t = TyApp(t, ty)
                    lex = lexemes[i]
                if lex in names or lex in _ARGUMENT_START:
                    stack.append((_APP, t))
                    where = _ARGUMENT
                    continue
            # t is a finished term
            while stack:
                frame = stack.pop()
                kind = frame[0]
                if kind == _LAM:
                    t = Lam(frame[1], frame[2], t)
                elif kind == _BANG_LAM:
                    t = BangLam(frame[1], frame[2], t)
                elif kind == _TY_LAM:
                    t = TyLam(frame[1], t)
                elif kind == _GROUP:
                    i = self.expect(")", i)
                    where = _ATOM
                    break
                elif kind == _LET_BANG_U:
                    i = self.expect("in", i)
                    stack.append((_LET_BANG_BODY, *frame[1:], t))
                    where = _TERM
                    break
                elif kind == _LET_BANG_BODY:
                    _, x, ty, u = frame
                    ty = ty if ty is not None else self.fresh_tyvar()
                    t = App(BangLam(x, ty, t), u)
                elif kind == _LET_PAIR_U:
                    i = self.expect("in", i)
                    stack.append((_LET_PAIR_BODY, *frame[1:], t))
                    where = _TERM
                    break
                elif kind == _LET_PAIR_BODY:
                    _, theta, x, xty, y, yty, u = frame
                    theta = theta if theta is not None else self.fresh_tyvar()
                    t = App(TyApp(u, theta), Lam(x, xty, Lam(y, yty, t)))
                elif kind == _CASE_SCRUTINEE:
                    i = self.expect("0", self.expect("{", self.expect("of", i)))
                    x, i = self.ident(i)
                    i = self.expect("->", i)
                    stack.append((_CASE_0, *frame[1:], t, x))
                    where = _TERM
                    break
                elif kind == _CASE_0:
                    i = self.expect("1", self.expect("|", i))
                    y, i = self.ident(i)
                    i = self.expect("->", i)
                    stack.append((_CASE_1, *frame[1:], t, y))
                    where = _TERM
                    break
                elif kind == _CASE_1:
                    i = self.expect("->", self.expect("e", self.expect("|", i)))
                    stack.append((_CASE_E, *frame[1:], t))
                    where = _TERM
                    break
                elif kind == _CASE_E:
                    i = self.expect("}", i)
                    _, theta, scrutinee, x, a, y, b = frame
                    head = TyApp(Unfold(scrutinee), theta)
                    t = App(App(App(head, Lam(x, STRS, a)), Lam(y, STRS, b)), t)
                elif kind == _PAIR_U:
                    uty, i = self.opt_annot(i)
                    uty = uty if uty is not None else self.fresh_tyvar()
                    i = self.expect(",", i)
                    stack.append((_PAIR_V, t, uty))
                    where = _TERM
                    break
                else:  # _PAIR_V
                    _, u, uty = frame
                    vty, i = self.opt_annot(i)
                    vty = vty if vty is not None else self.fresh_tyvar()
                    i = self.expect(">", i)
                    a = fresh_name("_p", uty.ftv | vty.ftv | u.ftv | t.ftv)
                    f = fresh_name("_f", u.fvs | t.fvs)
                    t = TyLam(a, Lam(f, Arrow(uty, Arrow(vty, TyVar(a))),
                                     App(App(Var(f), u), t)))
                    where = _ATOM
                    break
            else:
                return t, i


def _parse(text, parse):
    p = _Parser(text)
    t, i = parse(p, 0)
    if i != len(p.lexemes) - 1:
        p.err("trailing input", i)
    return t


def parse_term(text: str) -> Term:
    return _parse(text, _Parser.term)


def parse_type(text: str) -> Type:
    return _parse(text, _Parser.type_)
