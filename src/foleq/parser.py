"""Parser for the ASCII formula grammar.

    formula := "forall" VAR formula | "exists" VAR formula | iff
    iff     := impl ("<->" impl)*
    impl    := disj ("->" disj)*          (right-associative)
    disj    := conj ("|" conj)*
    conj    := unary ("&" unary)*
    unary   := "~" unary | "(" formula ")" | atom
    atom    := REL "(" term ("," term)* ")" | REL | term "=" term
    term    := VAR | CONST | FUNC "(" term ("," term)* ")"

Identifiers are [A-Za-z_][A-Za-z0-9_]*. Whether an identifier is a
relation, function, constant, or variable is decided by the vocabulary,
not by capitalization; undeclared identifiers are variables.
"""

from __future__ import annotations

import re

from .syntax import (
    And, Atom, Const, Eq, Exists, Forall, Formula, FoleqError, Func, Iff,
    IDENTIFIER, KEYWORDS, Implies, Not, Or, Term, Var, Vocabulary, VocabularyError,
    check_vocabulary, children,
)


class ParseError(FoleqError):
    """Input does not conform to the grammar; message carries the position."""


_TOKEN = re.compile(rf"\s*(?:(?P<ident>{IDENTIFIER.pattern})|(?P<punct><->|->|[()~&|,=]))")

# The deepest nesting `parse` accepts: of its own rules (a '~', '(',
# quantifier or function application each opens a level) and of the
# formula tree it returns. Past it, a formula raises `ParseError` instead of
# a `RecursionError` in the parser or in any later walk over the tree. The
# corpus's deepest formula is 12 levels.
MAX_DEPTH = 100


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise ParseError(f"unexpected character {rest[0]!r} at position {at}")
        if m.group("ident"):
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("punct", m.group("punct"), m.start("punct")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, vocab: Vocabulary):
        self.text = text
        self.vocab = vocab
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def nested(self, rule):
        """rule(), one level deeper; a ParseError past `MAX_DEPTH` levels."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"formula nested deeper than {MAX_DEPTH} levels")
        result = rule()
        self.depth -= 1
        return result

    def error(self, message: str, cls=ParseError):
        at = self.tokens[self.pos][2] if self.pos < len(self.tokens) else len(self.text)
        raise cls(f"{message} at position {at}")

    def peek(self) -> tuple[str, str] | None:
        if self.pos < len(self.tokens):
            kind, value, _ = self.tokens[self.pos]
            return kind, value
        return None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, punct: str):
        tok = self.peek()
        if tok != ("punct", punct):
            self.error(f"expected {punct!r}")
        self.pos += 1

    def at_punct(self, punct: str) -> bool:
        return self.peek() == ("punct", punct)

    # grammar rules, top-down

    def formula(self) -> Formula:
        tok = self.peek()
        if tok in (("ident", "forall"), ("ident", "exists")):
            _, kw = self.next()
            var = self.variable()
            body = self.nested(self.formula)
            return Forall(var, body) if kw == "forall" else Exists(var, body)
        return self.iff()

    def variable(self) -> str:
        tok = self.peek()
        if tok is None or tok[0] != "ident" or tok[1] in KEYWORDS:
            self.error("expected a variable name")
        name = tok[1]
        if self.vocab.declares(name):
            self.error(f"declared symbol {name} cannot be bound by a quantifier",
                       VocabularyError)
        self.pos += 1
        return name

    def iff(self) -> Formula:
        f = self.impl()
        while self.at_punct("<->"):
            self.pos += 1
            f = Iff(f, self.impl())
        return f

    def impl(self) -> Formula:
        parts = [self.disj()]
        while self.at_punct("->"):
            self.pos += 1
            parts.append(self.disj())
        f = parts[-1]
        for left in reversed(parts[:-1]):
            f = Implies(left, f)
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.at_punct("|"):
            self.pos += 1
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.at_punct("&"):
            self.pos += 1
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok == ("punct", "~"):
            self.pos += 1
            return Not(self.nested(self.unary))
        if tok == ("punct", "("):
            self.pos += 1
            f = self.nested(self.formula)
            self.expect(")")
            return f
        if tok in (("ident", "forall"), ("ident", "exists")):
            # quantifiers are allowed wherever a unary formula is; the body
            # still extends as far right as possible
            return self.formula()
        if tok[0] != "ident":
            self.error("expected an atom, '~', or '('")
        return self.atom()

    def atom(self) -> Formula:
        _, name = self.peek()
        if name in self.vocab.relations:
            self.pos += 1
            arity = self.vocab.relations[name]
            if self.at_punct("("):
                args = self.arguments()
                if len(args) != arity:
                    self.error(f"relation {name} has arity {arity}, "
                               f"used with {len(args)} arguments", VocabularyError)
                return Atom(name, tuple(args))
            if arity != 0:
                self.error(f"relation {name} has arity {arity}, used without arguments",
                           VocabularyError)
            return Atom(name)
        left = self.term()
        if not self.at_punct("="):
            self.error("expected '=' after a term")
        if not self.vocab.with_equality:
            self.error("equality used over an equality-free vocabulary", VocabularyError)
        self.pos += 1
        right = self.term()
        return Eq(left, right)

    def arguments(self) -> list[Term]:
        self.expect("(")
        args = [self.term()]
        while self.at_punct(","):
            self.pos += 1
            args.append(self.term())
        self.expect(")")
        return args

    def term(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok[0] != "ident" or tok[1] in KEYWORDS:
            self.error("expected a term")
        name = tok[1]
        if name in self.vocab.functions:
            self.pos += 1
            args = self.nested(self.arguments)
            arity = self.vocab.functions[name]
            if len(args) != arity:
                self.error(f"function {name} has arity {arity}, "
                           f"used with {len(args)} arguments", VocabularyError)
            return Func(name, tuple(args))
        if name in self.vocab.constants:
            self.pos += 1
            return Const(name)
        if name in self.vocab.relations:
            self.error(f"relation {name} used as a term", VocabularyError)
        self.pos += 1
        if self.at_punct("("):
            self.error(f"undeclared symbol {name}", VocabularyError)
        return Var(name)


def parse(text: str, vocab: Vocabulary) -> Formula:
    """Parse `text` over `vocab`; raises ParseError or VocabularyError."""
    p = _Parser(text, vocab)
    f = p.formula()
    if p.peek() is not None:
        p.error("trailing input")
    if _depth(f) > MAX_DEPTH:
        raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels")
    check_vocabulary(f, vocab)
    return f


def _depth(f: Formula) -> int:
    """The most formulas on one path from f down to an atom, counted
    without recursion: a chain like 'P & P & ... & P' nests its tree
    without nesting the parser."""
    deepest, stack = 0, [(f, 1)]
    while stack:
        g, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((c, depth + 1) for c in children(g))
    return deepest
