"""Closed-form expression grammar used by scenario files.

The grammar is deliberately small: numbers, bare scalar variables (``t``),
indexed vector variables (``phi[0]``, ``u0[1]``), the operators ``+ - * / ^``
and the functions ``sin cos exp tanh abs min max``.  Expressions are parsed
once, validated against the variable set of their context, and compiled to a
plain Python lambda for fast repeated evaluation inside integrator loops.

The same AST can be evaluated over noncommuting polynomial values (see
:func:`nc_evaluate`), which is how algebra relations like
``x1*x2 - x2*x1 - x3`` are read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence


class ExpressionError(ValueError):
    """Raised for lexical, syntactic or validation errors in an expression."""

    def __init__(self, message: str, source: str = "", pos: int | None = None):
        detail = message
        if source:
            detail += f" in {source!r}"
            if pos is not None:
                detail += f" (at offset {pos})"
        super().__init__(detail)
        self.source = source
        self.pos = pos


# AST nodes are plain tuples:
#   ("num", value)                      float literal
#   ("var", name, index_or_None)        variable reference
#   ("call", fname, (args...))          function application
#   ("bin", op, left, right)            binary operator
#   ("neg", operand)                    unary minus

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "tanh": 1, "abs": 1, "min": 2, "max": 2}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()\[\],]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            rest = src[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"unrecognized token {rest[0]!r}", src, pos)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str, value: str | None = None):
        tok = self.tokens[self.i]
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ExpressionError(f"expected {want!r}, found {tok[1] or 'end of input'!r}",
                                  self.src, tok[2])
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"unexpected trailing token {tok[1]!r}", self.src, tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take("op")[1]
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take("op")[1]
            node = ("bin", op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.take("op")
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.take("op")
            return ("bin", "^", node, self.unary())
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take("num")
            return ("num", float(tok[1]))
        if tok[0] == "name":
            self.take("name")
            name = tok[1]
            nxt = self.peek()
            if nxt[:2] == ("op", "("):
                if name not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {name!r}", self.src, tok[2])
                self.take("op", "(")
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.take("op", ",")
                    args.append(self.expr())
                self.take("op", ")")
                if len(args) != FUNCTIONS[name]:
                    raise ExpressionError(
                        f"function {name!r} takes {FUNCTIONS[name]} argument(s), got {len(args)}",
                        self.src, tok[2])
                return ("call", name, tuple(args))
            if nxt[:2] == ("op", "["):
                self.take("op", "[")
                idx_tok = self.take("num")
                if "." in idx_tok[1] or "e" in idx_tok[1] or "E" in idx_tok[1]:
                    raise ExpressionError("index must be an integer", self.src, idx_tok[2])
                self.take("op", "]")
                return ("var", name, int(idx_tok[1]))
            return ("var", name, None)
        if tok[:2] == ("op", "("):
            self.take("op", "(")
            node = self.expr()
            self.take("op", ")")
            return node
        raise ExpressionError(f"unexpected token {tok[1] or 'end of input'!r}", self.src, tok[2])


@lru_cache(maxsize=4096)
def parse(src: str):
    """Parse an expression string into its AST, with caching."""
    return _Parser(src).parse()


def variables(src: str) -> set[tuple[str, int | None]]:
    """Return the set of (name, index) variable references used by ``src``."""
    found: set[tuple[str, int | None]] = set()

    def walk(node):
        kind = node[0]
        if kind == "var":
            found.add((node[1], node[2]))
        elif kind == "neg":
            walk(node[1])
        elif kind == "bin":
            walk(node[2])
            walk(node[3])
        elif kind == "call":
            for a in node[2]:
                walk(a)

    walk(parse(src))
    return found


def validate(src: str, scalars: Sequence[str], vectors: Mapping[str, int]) -> None:
    """Check that ``src`` parses and only references the declared variables.

    ``scalars`` are bare names; ``vectors`` maps names to their dimension and
    must be referenced with an in-range index.
    """
    for name, index in variables(src):
        if index is None:
            if name not in scalars:
                if name in vectors:
                    raise ExpressionError(f"variable {name!r} must be indexed", src)
                raise ExpressionError(f"unknown variable {name!r}", src)
        else:
            if name not in vectors:
                raise ExpressionError(f"variable {name!r} is not indexable here", src)
            dim = vectors[name]
            if not 0 <= index < dim:
                raise ExpressionError(
                    f"index {index} out of range for {name!r} (dimension {dim})", src)


_FUNC_NS = {
    "_f_sin": math.sin,
    "_f_cos": math.cos,
    "_f_exp": math.exp,
    "_f_tanh": math.tanh,
    "_f_abs": abs,
    "_f_min": min,
    "_f_max": max,
}


def _emit(node) -> str:
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "var":
        if node[2] is None:
            return f"_v_{node[1]}"
        return f"_v_{node[1]}[{node[2]}]"
    if kind == "neg":
        return f"(-{_emit(node[1])})"
    if kind == "call":
        args = ", ".join(_emit(a) for a in node[2])
        return f"_f_{node[1]}({args})"
    op = node[1]
    left, right = _emit(node[2]), _emit(node[3])
    if op == "^":
        return f"({left} ** {right})"
    return f"({left} {op} {right})"


def _compile(body: str, scalars: Sequence[str], vectors: Mapping[str, int]) -> Callable:
    arglist = ", ".join([f"_v_{n}" for n in scalars] + [f"_v_{n}" for n in vectors])
    # The body is assembled purely from our validated AST; nothing from the raw
    # string reaches eval directly.  The function namespace must be the
    # lambda's globals: it is resolved at call time, not at eval time.
    namespace = {"__builtins__": {}, **_FUNC_NS}
    return eval(f"lambda {arglist}: {body}", namespace)  # noqa: S307


def compile_expression(src: str, scalars: Sequence[str] = (),
                       vectors: Mapping[str, int] | None = None) -> Callable:
    """Compile ``src`` into a function of the declared variables.

    The returned callable takes one positional argument per declared variable,
    scalars first (in the given order) then vectors (in mapping order).
    Vector arguments are indexable sequences of the declared dimension.
    """
    vectors = vectors or {}
    validate(src, scalars, vectors)
    return _compile(f"({_emit(parse(src))})", scalars, vectors)


@dataclass(frozen=True)
class VectorExpression:
    """A fixed-length vector of compiled component expressions."""

    sources: tuple[str, ...]
    fn: Callable

    @property
    def dim(self) -> int:
        return len(self.sources)


def compile_vector(sources: Sequence[str], scalars: Sequence[str] = (),
                   vectors: Mapping[str, int] | None = None) -> VectorExpression:
    """Compile ``sources`` into one function returning the list of component values,
    evaluated left to right exactly as :func:`compile_expression` evaluates each."""
    vectors = vectors or {}
    for src in sources:
        validate(src, scalars, vectors)
    body = ", ".join(f"({_emit(parse(src))})" for src in sources)
    return VectorExpression(tuple(sources), _compile(f"[{body}]", scalars, vectors))


# ---------------------------------------------------------------------------
# Noncommutative polynomial evaluation (algebra relations, Weyl symbols)
# ---------------------------------------------------------------------------

class NCPoly:
    """Polynomial in noncommuting letters with complex coefficients.

    Words are tuples of letters; a letter is an int (generator slot) or a
    string (lifted constant).  The empty word is the scalar unit.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, complex] | None = None):
        self.terms: dict[tuple, complex] = {}
        if terms:
            for word, coeff in terms.items():
                if coeff != 0:
                    self.terms[tuple(word)] = complex(coeff)

    @classmethod
    def scalar(cls, value: complex) -> "NCPoly":
        return cls({(): value})

    @classmethod
    def letter(cls, letter) -> "NCPoly":
        return cls({(letter,): 1.0})

    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NCPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        out: dict[tuple, complex] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NCPoly(out)

    def __rmul__(self, other):
        return _as_poly(other) * self

    def __truediv__(self, other):
        other = _as_poly(other)
        value = other.scalar_value()
        if value is None or value == 0:
            raise ExpressionError("division by zero or by a non-scalar polynomial")
        return NCPoly({w: c / value for w, c in self.terms.items()})

    def __pow__(self, exponent):
        if isinstance(exponent, NCPoly):
            value = exponent.scalar_value()
            if value is None or value.imag != 0 or value.real != int(value.real):
                raise ExpressionError("polynomial exponent must be a nonnegative integer")
            exponent = int(value.real)
        if exponent < 0:
            raise ExpressionError("negative powers are not defined for polynomials")
        result = NCPoly.scalar(1.0)
        for _ in range(exponent):
            result = result * self
        return result

    def scalar_value(self) -> complex | None:
        if not self.terms:
            return 0j
        if set(self.terms) == {()}:
            return self.terms[()]
        return None

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        bits = []
        for word, coeff in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), str(kv[0]))):
            mono = "*".join(str(l) for l in word) if word else "1"
            bits.append(f"({coeff})*{mono}")
        return "NCPoly(" + " + ".join(bits) + ")"


def _as_poly(value) -> NCPoly:
    if isinstance(value, NCPoly):
        return value
    return NCPoly.scalar(complex(value))


def nc_evaluate(src: str, letters: Mapping[str, NCPoly]) -> NCPoly:
    """Evaluate an expression over noncommuting letters.

    ``letters`` maps variable names (e.g. ``x1``) to polynomials; the name
    ``i`` denotes the imaginary unit unless shadowed.  Functions are not
    defined in this domain.
    """

    def walk(node) -> NCPoly:
        kind = node[0]
        if kind == "num":
            return NCPoly.scalar(node[1])
        if kind == "var":
            if node[2] is not None:
                raise ExpressionError(f"indexed variable {node[1]!r} not allowed here", src)
            name = node[1]
            if name in letters:
                return letters[name]
            if name == "i":
                return NCPoly.scalar(1j)
            raise ExpressionError(f"unknown letter {name!r}", src)
        if kind == "neg":
            return -walk(node[1])
        if kind == "call":
            raise ExpressionError(f"function {node[1]!r} not allowed in polynomial context", src)
        op = node[1]
        left, right = walk(node[2]), walk(node[3])
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        return left ** right

    return walk(parse(src))
