"""Normalization and readers for canonical data.

The strategy is leftmost-outermost over four redex shapes:

    (\\x:A. t) u        beta
    (\\!x:S. t) (!u)    bang
    (/\\a. t) [A]       type beta
    unfold (fold[T] t)  fixpoint cancellation

The calculus is confluent and normalizing, so the strategy only pins down
the reduction sequence, not the result.  Everything here also works on
open and on erased terms.

Evaluator decides the same booleans without rewriting: it evaluates terms
to Python values in environments (normalization by evaluation, Berger and
Schwichtenberg, LICS 1991), takes words as native values and shares the
values of closed subterms across the words it decides.
"""

from __future__ import annotations

from collections.abc import Iterator
from weakref import WeakKeyDictionary

from .syntax import (
    DEFAULT_FUEL, App, Bang, BangLam, Fold, InputError, Lam, ResourceLimit, Term,
    TyApp, TyLam, Unfold, Var, children, erase_annotations, print_term,
    replace_child, subst_term, subst_type_in_term,
)


class FuelExhausted(ResourceLimit):
    def __init__(self, steps: int):
        super().__init__("no normal form after %d reduction steps" % steps)
        self.steps = steps


class DecodeError(InputError):
    """A normal form does not have the shape the reader expects."""


def _contract_child(p: Term, i: int, c: Term, memo: dict) -> Term | None:
    """The four redex shapes: the contractum of p with child i replaced
    by c, or None when that is not a redex.  p itself is never rebuilt.

    memo maps each type abstraction node, weakly, to its last instantiation
    (type argument node, contractum), so that an abstraction instantiated
    again at the same type node is not substituted again.  Nodes compare by
    identity.  An entry dies with its abstraction, before its id can be
    reused, and holds one contractum, so the memo grows with the live term
    and not with the number of contractions."""
    cls = type(p)
    if cls is App:
        f, a = (c, p.arg) if i == 0 else (p.fn, c)
        fcls = type(f)
        if fcls is Lam:
            return subst_term(f.body, f.var, a)
        if fcls is BangLam and type(a) is Bang:
            return subst_term(f.body, f.var, a.body)
    elif cls is TyApp:
        if type(c) is TyLam:
            ty = p.ty
            last = memo.get(c)
            if last is not None and last[0] is ty:
                return last[1]
            r = subst_type_in_term(c.body, c.var, ty)
            memo[c] = ty, r
            return r
    elif cls is Unfold and type(c) is Fold:
        return c.body
    return None


def _contract(t: Term, memo: dict) -> Term | None:
    """The four redex shapes, at the root only."""
    cls = type(t)
    if cls is App or cls is TyApp:
        return _contract_child(t, 0, t.fn, memo)
    if cls is Unfold:
        return _contract_child(t, 0, t.body, memo)
    return None


def _reduce(t: Term, fuel: int):
    """The one reduction engine: contract leftmost-outermost redexes of t.

    A zipper (Huet, "The Zipper", JFP 1997) keeps the (parent, child index)
    frames from the root down to the focus, so the preorder scan never
    restarts from the root.  Every redex shape looks only one level down,
    so after a contraction at the focus only its parent can have become a
    redex: the parent is re-tested, upward while contractions happen, and
    then the scan goes on from the contractum.  A parent is rebuilt only
    when the scan climbs past a changed child.

    The run keeps a memo of its type beta contracta (see _contract_child):
    Church iteration instantiates the same abstractions at the same types
    on every letter.  The memo lives only as long as the run.

    Yields (frames, focus) after each contraction; both are live and valid
    until the engine resumes.  Returns the normal form.  Raises ValueError
    unless fuel is positive, and FuelExhausted(fuel) on finding a redex once
    fuel contractions are made.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    memo = WeakKeyDictionary()
    frames = []
    focus = t
    steps = 0
    while True:
        r = _contract(focus, memo)
        while r is not None:
            if steps >= fuel:
                raise FuelExhausted(fuel)
            steps += 1
            focus = r
            yield frames, focus
            r = _contract_child(*frames[-1], focus, memo) if frames else None
            if r is not None:
                frames.pop()
            else:
                r = _contract(focus, memo)
        kids = children(focus)
        if kids:
            frames.append((focus, 0))
            focus = kids[0]
            continue
        while frames:
            parent, i = frames.pop()
            kids = children(parent)
            if focus is not kids[i]:
                parent = replace_child(parent, i, focus)
                kids = children(parent)
            if i + 1 < len(kids):
                frames.append((parent, i + 1))
                focus = kids[i + 1]
                break
            focus = parent
        else:
            return focus


# The engine under a public name, for callers that watch each contraction:
# `eal norm --show-steps` reads the contracted paths off the frames.
engine = _reduce


def trace(t: Term, fuel: int = DEFAULT_FUEL) -> Iterator[tuple]:
    """Yield (term, contracted path) pairs until a normal form is reached."""
    for frames, term in _reduce(t, fuel):
        for parent, i in reversed(frames):
            term = replace_child(parent, i, term)
        yield term, tuple(i for _, i in frames)


def step(t: Term) -> Term | None:
    """One leftmost-outermost step, or None if t is normal."""
    r = next(trace(t, 1), None)
    return None if r is None else r[0]


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> Term:
    steps = _reduce(t, fuel)
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


def is_normal(t: Term) -> bool:
    return next(trace(t, 1), None) is None


# -- evaluation ----------------------------------------------------------------
#
# Values: _Closure (\x or \!x with its environment), _TyClosure, _Box (a
# bang, whose _Thunk is evaluated on first use and then shared), _Folded,
# _Word, and _Neutral for whatever is stuck.  Environments are linked
# frames (name, value, next); a \!x frame holds the box's _Thunk.

class _Neutral:
    """A stuck value.  Type application and unfold leave a neutral as it
    is, since erasure removes them; every other elimination is _STUCK."""
    __slots__ = ()


_STUCK = _Neutral()


class _Closure:
    __slots__ = ("var", "body", "env", "bang")

    def __init__(self, var, body, env, bang):
        self.var, self.body, self.env, self.bang = var, body, env, bang


class _TyClosure:
    __slots__ = ("body", "env")

    def __init__(self, body, env):
        self.body, self.env = body, env


class _Thunk:
    __slots__ = ("term", "env", "value")

    def __init__(self, term, env, value=None):
        self.term, self.env, self.value = term, env, value


# The values that can capture nothing: one of these with env None is
# fixed by its node alone.
_CLOSED = (_Closure, _TyClosure)


class _Box:
    __slots__ = ("thunk",)

    def __init__(self, thunk):
        self.thunk = thunk


class _Folded:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Word:
    """The Church string /\\a. \\!f0. \\!f1. !(\\x. f_{w1} (... (f_{wn} x)))
    as a native value.  Type application passes it through, two boxes fix
    the step functions, and the iterator in the resulting box loops over
    reversed(w), so no stack grows with |w|."""
    __slots__ = ("w", "steps")

    def __init__(self, w, steps=()):
        self.w, self.steps = w, steps


class Evaluator:
    """Evaluate terms to values and read booleans off them; a free
    variable is stuck.

    The contractions are those of _reduce: beta, bang-beta when the
    argument's value is a box, type-beta (types are dropped, since no
    term-level redex depends on them) and unfold-fold.  Arguments of \\x
    are evaluated before the call; a box is evaluated only when a \\!x
    variable bound to it is used, once.  Each evaluate or decide call may
    make `fuel` contractions and raises FuelExhausted(fuel) past that.

    Values that capture nothing are shared across calls: a closed \\x, \\!x
    or /\\a node has one value per evaluator, and a \\x value applied to
    such a value gives a result that depends on the two alone.  When that
    result captures nothing either, it is kept with the contractions it
    took, which a repeat charges again, so every call's verdict and fuel
    use are those of evaluation without the memo.  A box is never shared,
    so each call still forces and counts its own.
    """

    def __init__(self, fuel: int = DEFAULT_FUEL):
        if fuel <= 0:
            raise ValueError("fuel must be positive")
        self.fuel = fuel
        self._left = fuel
        self._closed = {}  # closed abstraction node -> its one value
        self._applied = {}  # (closed f, closed a) -> (f a, contractions made)

    def evaluate(self, t: Term):
        """The value of the closed term t."""
        self._left = self.fuel
        return self._eval(t, None)

    def decide(self, f, w: str, banged: bool) -> bool | None:
        """Apply the value f to the native word w, boxed when `banged`, and
        read the boolean: None when the result is not one, so that the
        caller can consult read_bool for the diagnosis."""
        self._left = self.fuel
        arg = _Word(w)
        if banged:
            arg = _Box(_Thunk(None, None, arg))
        v = self._apply(f, arg)
        while True:  # erasure drops folds and type abstractions
            if type(v) is _Box:
                v = self._force(v.thunk)
            elif type(v) is _TyClosure:
                v = self._eval(v.body, v.env)
            elif type(v) is _Folded:
                v = v.value
            else:
                break
        x, y = _Neutral(), _Neutral()
        for n in (x, y):
            if type(v) is not _Closure or v.bang:
                return None
            v = self._eval(v.body, (v.var, n, v.env))
        return True if v is x else False if v is y else None

    def _contract(self):
        self._left -= 1
        if self._left < 0:
            raise FuelExhausted(self.fuel)

    def _force(self, thunk):
        if thunk.term is not None:
            thunk.value = self._eval(thunk.term, thunk.env)
            thunk.term = thunk.env = None
        return thunk.value

    def _eval(self, t, env):
        cls = type(t)
        if cls is App:
            return self._apply(self._eval(t.fn, env), self._eval(t.arg, env))
        if cls is Var:
            name = t.name
            while env is not None:
                if env[0] == name:
                    v = env[1]
                    return self._force(v) if type(v) is _Thunk else v
                env = env[2]
            return _STUCK  # a free variable
        if cls is Lam or cls is BangLam or cls is TyLam:
            if t.fvs:
                if cls is TyLam:
                    return _TyClosure(t.body, env)
                return _Closure(t.var, t.body, env, cls is BangLam)
            v = self._closed.get(t)
            if v is None:
                v = (_TyClosure(t.body, None) if cls is TyLam
                     else _Closure(t.var, t.body, None, cls is BangLam))
                self._closed[t] = v
            return v
        if cls is Bang:
            return _Box(_Thunk(t.body, env))
        if cls is TyApp:
            f = self._eval(t.fn, env)
            if type(f) is _TyClosure:
                self._contract()
                return self._eval(f.body, f.env)
            if type(f) is _Word and not f.steps:
                self._contract()
                return f
            return f if type(f) is _Neutral else _STUCK
        if cls is Fold:
            return _Folded(self._eval(t.body, env))
        if cls is Unfold:
            v = self._eval(t.body, env)
            if type(v) is _Folded:
                self._contract()
                return v.value
            return v if type(v) is _Neutral else _STUCK
        raise TypeError(t)

    def _apply(self, f, a):
        if type(f) is _Closure:
            if not f.bang:
                if f.env is None and type(a) in _CLOSED and a.env is None:
                    # f a depends on f and a alone (see the class doc)
                    hit = self._applied.get((f, a))
                    if hit is not None:
                        self._left -= hit[1]
                        if self._left < 0:
                            raise FuelExhausted(self.fuel)
                        return hit[0]
                    left = self._left
                    self._contract()
                    v = self._eval(f.body, (f.var, a, None))
                    if type(v) in _CLOSED and v.env is None:
                        self._applied[(f, a)] = (v, left - self._left)
                    return v
                self._contract()
                return self._eval(f.body, (f.var, a, f.env))
            if type(a) is _Box:
                self._contract()
                return self._eval(f.body, (f.var, a.thunk, f.env))
        elif type(f) is _Word:
            if len(f.steps) == 2:
                self._contract()  # \x. f_{w1} (... (f_{wn} x))
                f0, f1 = f.steps
                for c in reversed(f.w):
                    a = self._apply(self._force(f1 if c == "1" else f0), a)
                return a
            if type(a) is _Box:
                self._contract()
                word = _Word(f.w, f.steps + (a.thunk,))
                return word if len(word.steps) < 2 else _Box(_Thunk(None, None, word))
        return _STUCK


# -- readers -----------------------------------------------------------------

def strip_bangs(t: Term) -> tuple:
    """t without its outer bangs, and how many there were."""
    n = 0
    while isinstance(t, Bang):
        t = t.body
        n += 1
    return t, n


def _erased_nf(t: Term, fuel: int) -> Term:
    """The erased normal form of t under its outer bangs."""
    return strip_bangs(erase_annotations(normalize(t, fuel)))[0]


def _iterator_body(body: Term, x: str, letters: dict) -> str:
    """Read f_{c1} (... (f_{cn} x)), where `letters` maps each step
    function's name to its letter, and return c1 ... cn."""
    out = []
    while True:
        match body:
            case Var(z) if z == x:
                return "".join(out)
            case App(Var(f), rest) if f in letters:
                out.append(letters[f])
                body = rest
            case _:
                raise DecodeError("unexpected iterator body: %s" % print_term(body))


def read_bool(t: Term, fuel: int = DEFAULT_FUEL) -> bool:
    """Read a boolean out of a closed term of type !^k Bool (any k >= 0)."""
    nf = _erased_nf(t, fuel)
    match nf:
        case Lam(x, _, Lam(y, _, Var(z))):
            if z == y:  # innermost binding wins under shadowing
                return False
            if z == x:
                return True
    raise DecodeError("not a boolean normal form: %s" % print_term(nf))


def decode_church_string(t: Term, fuel: int = DEFAULT_FUEL) -> str:
    """Match \\!f0. \\!f1. !(\\x. f_{w1} (... (f_{wn} x))) and return w."""
    nf = _erased_nf(t, fuel)
    match nf:
        case BangLam(f0, _, BangLam(f1, _, Bang(Lam(x, _, body)))):
            if x in (f0, f1):
                raise DecodeError("iterator variable shadows a step function")
            # when f0 and f1 share a name, the inner binder f1 wins
            return _iterator_body(body, x, {f0: "0", f1: "1"})
    raise DecodeError("not a Church string: %s" % print_term(nf))


def decode_church_nat(t: Term, fuel: int = DEFAULT_FUEL) -> int:
    nf = _erased_nf(t, fuel)
    match nf:
        case BangLam(f, _, Bang(Lam(x, _, body))):
            if x == f:
                raise DecodeError("iterator variable shadows the step function")
            return len(_iterator_body(body, x, {f: "1"}))
    raise DecodeError("not a Church numeral: %s" % print_term(nf))


def decode_scott_string(t: Term, fuel: int = DEFAULT_FUEL) -> str:
    """Read w off the normal form of a Scott string, computed once.

    Each level of the normal form must be fold[T] (/\\a. \\f0. \\f1. \\x. b),
    where b is x at the end of the string and f0 s or f1 s before the rest
    s of it.  A name means the innermost of f0, f1 and x that it names, as
    when the level is applied to three continuations."""
    letters = []
    s = normalize(t, fuel)
    while True:
        match s:
            case Fold(_, TyLam(_, Lam(f0, _, Lam(f1, _, Lam(x, _, body))))):
                arms = {f0: "0", f1: "1", x: ""}
                match body:
                    case Var(z) if arms.get(z) == "":
                        return "".join(letters)
                    case App(Var(z), rest) if arms.get(z):
                        letters.append(arms[z])
                        s = rest
                        continue
        raise DecodeError("not a Scott string: %s" % print_term(s))
