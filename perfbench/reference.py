"""Independent references that judge the toolkit's outputs.

Nothing here asks ealc whether an answer is right.  The five reference
languages are hand-written predicates, automata are run by walking their
transition tables, regexes are checked with Python's `re`, terms and types
are compared with an alpha-equivalence written here, and word-morphism
tables are recomputed with an endomorphism composition written here.  The
node classes of ealc are used only as data: their fields are read, never
their methods.
"""

from __future__ import annotations

import itertools

ALPHABET = "01"


# ---------------------------------------------------------------------------
# The five reference languages

def parity(w: str) -> bool:
    ones = 0
    for c in w:
        ones += c == "1"
    return ones % 2 == 0


def contains_11(w: str) -> bool:
    return any(w[i] == "1" and w[i + 1] == "1" for i in range(len(w) - 1))


def div3(w: str) -> bool:
    r = 0
    for c in w:
        r = (2 * r + (c == "1")) % 3
    return r == 0


def ends_with_0(w: str) -> bool:
    return w[-1:] == "0"


def all_strings(w: str) -> bool:
    return True


PREDICATES = {
    "parity": parity,
    "contains-11": contains_11,
    "div3": div3,
    "ends-with-0": ends_with_0,
    "all-strings": all_strings,
}


def words(max_len: int):
    for n in range(max_len + 1):
        for letters in itertools.product(ALPHABET, repeat=n):
            yield "".join(letters)


def run_table(start, accept, delta, w: str) -> bool:
    """Run a DFA given as its start state, accepting set and delta table."""
    s = start
    for c in w:
        s = delta[s][c]
    return s in accept


def dfa_disagreement(start, accept, delta, pred, max_len: int):
    """The first word of length <= max_len on which the table and `pred`
    disagree, or None."""
    for w in words(max_len):
        if run_table(start, accept, delta, w) != pred(w):
            return w
    return None


def monoid_disagreement(monoid, pred, max_len: int):
    """Read words through a monoid presentation's table by hand."""
    for w in words(max_len):
        m = 1
        for c in w:
            m = monoid.table[m - 1][(monoid.gen0 if c == "0" else monoid.gen1) - 1]
        if (m in monoid.accept) != pred(w):
            return w
    return None


# ---------------------------------------------------------------------------
# Regexes: one tree, rendered for the toolkit and for Python's re

def random_regex(rng, leaves: int):
    """A seeded regex tree with `leaves` letters: ("lit", c), ("eps",),
    ("cat", a, b), ("alt", a, b), ("star", a)."""
    if leaves == 1:
        node = ("lit", rng.choice(ALPHABET)) if rng.random() < 0.9 else ("eps",)
    else:
        k = rng.randint(1, leaves - 1)
        op = "cat" if rng.random() < 0.55 else "alt"
        node = (op, random_regex(rng, k), random_regex(rng, leaves - k))
    if rng.random() < 0.3:
        node = ("star", node)
    return node


def family_regex(k: int):
    """(0|1)*1(0|1)^k: the last-but-k letter is a 1; its minimal DFA has
    2^(k+1) states."""
    any_letter = ("alt", ("lit", "0"), ("lit", "1"))
    node = ("cat", ("star", any_letter), ("lit", "1"))
    for _ in range(k):
        node = ("cat", node, any_letter)
    return node


def render_eal(node) -> str:
    """The toolkit's regex syntax: 0 1, e for the empty word, |, *, ()."""
    match node:
        case ("lit", c):
            return c
        case ("eps",):
            return "e"
        case ("cat", a, b):
            return "(%s%s)" % (render_eal(a), render_eal(b))
        case ("alt", a, b):
            return "(%s|%s)" % (render_eal(a), render_eal(b))
        case ("star", a):
            return "(%s)*" % render_eal(a)
    raise ValueError(node)


def render_re(node) -> str:
    match node:
        case ("lit", c):
            return c
        case ("eps",):
            return "(?:)"
        case ("cat", a, b):
            return "(?:%s%s)" % (render_re(a), render_re(b))
        case ("alt", a, b):
            return "(?:%s|%s)" % (render_re(a), render_re(b))
        case ("star", a):
            return "(?:%s)*" % render_re(a)
    raise ValueError(node)


# ---------------------------------------------------------------------------
# Alpha-equivalence of terms and types, read off the node fields

def type_alpha_eq(s, t, envl=None, envr=None, depth=0) -> bool:
    envl = envl or {}
    envr = envr or {}
    ks, kt = type(s).__name__, type(t).__name__
    if ks != kt:
        return False
    if ks == "TyVar":
        ls, lt = envl.get(s.name), envr.get(t.name)
        return ls == lt if (ls is not None or lt is not None) else s.name == t.name
    if ks == "Arrow":
        return (type_alpha_eq(s.src, t.src, envl, envr, depth)
                and type_alpha_eq(s.dst, t.dst, envl, envr, depth))
    if ks == "BangType":
        return type_alpha_eq(s.body, t.body, envl, envr, depth)
    if ks in ("Forall", "Mu"):
        return type_alpha_eq(s.body, t.body, {**envl, s.var: depth},
                             {**envr, t.var: depth}, depth + 1)
    raise TypeError(ks)


def _opt_type_eq(s, t, tl, tr, d) -> bool:
    if s is None or t is None:
        return s is None and t is None
    return type_alpha_eq(s, t, tl, tr, d)


def term_alpha_eq(s, t) -> bool:
    """Alpha-equivalence with an explicit stack, so that deep terms do not
    depend on the recursion limit."""
    todo = [(s, t, {}, {}, {}, {}, 0)]
    while todo:
        s, t, el, er, tl, tr, d = todo.pop()
        ks, kt = type(s).__name__, type(t).__name__
        if ks != kt:
            return False
        if ks == "Var":
            ls, lt = el.get(s.name), er.get(t.name)
            if (ls != lt) if (ls is not None or lt is not None) else s.name != t.name:
                return False
        elif ks in ("Lam", "BangLam"):
            if not _opt_type_eq(s.ty, t.ty, tl, tr, d):
                return False
            todo.append((s.body, t.body, {**el, s.var: d}, {**er, t.var: d},
                         tl, tr, d + 1))
        elif ks == "App":
            todo.append((s.fn, t.fn, el, er, tl, tr, d))
            todo.append((s.arg, t.arg, el, er, tl, tr, d))
        elif ks in ("Bang", "Unfold"):
            todo.append((s.body, t.body, el, er, tl, tr, d))
        elif ks == "TyLam":
            todo.append((s.body, t.body, el, er, {**tl, s.var: d},
                         {**tr, t.var: d}, d + 1))
        elif ks == "TyApp":
            if not type_alpha_eq(s.ty, t.ty, tl, tr, d):
                return False
            todo.append((s.fn, t.fn, el, er, tl, tr, d))
        elif ks == "Fold":
            if not type_alpha_eq(s.ty, t.ty, tl, tr, d):
                return False
            todo.append((s.body, t.body, el, er, tl, tr, d))
        else:
            raise TypeError(ks)
    return True


# ---------------------------------------------------------------------------
# Word-morphism tables

def endo_digits(index: int, size: int) -> tuple:
    """The map x -> f(x) on range(size) encoded as sum f(x) * size**x."""
    out = []
    for _ in range(size):
        out.append(index % size)
        index //= size
    return tuple(out)


def phi_entry(w: str, i: int, j: int, size: int) -> int:
    """Entry (g0, g1) of the table of w: the index of g_{w1} . ... . g_{wn}."""
    g = (endo_digits(i, size), endo_digits(j, size))
    out = 0
    for x in reversed(range(size)):
        y = x
        for c in reversed(w):
            y = g[c == "1"][y]
        out = out * size + y
    return out
