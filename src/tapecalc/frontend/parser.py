"""Tokenizer and recursive-descent parser for the ``.tape`` format.

Operator precedence is fixed: ``;`` binds loosest, then ``(x)``, then
``(+)``; all three associate to the left.  ``(x)`` and ``(+)`` may also
be written with the Unicode symbols.  Rationals only; decimal literals
are rejected.  Diagnostics carry line, column and the expected tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import ParseError
from ..objects import Monomial, ONE, Polynomial, ZERO, SortRef, Sum, Tensor, \
    UnitOne, ZeroObj, ObjTerm, poly_of_mono
from ..hashcons import fold
from ..theory import App, CM_PLUS, CM_ZERO, OpSymbol, SIGMA_KIDS, STAR, \
    SigmaTerm, Var, check_term, choice
from .surface import (CAtomGen, CAtomId, CIRCUIT_ATOMS, CExpr, CSeqS,
                      CTensorS, CheckDecl, DefDecl, GenDecl, INFIX,
                      InterpDecl, SAtom, SCircuit, SExpr, SOp, SRef, SSeq,
                      SSum, STensor, STermBr, SortDecl, SourceModule,
                      TAPE_ATOMS, TheoryDecl)


PUNCT = {
    "->": "ARROW", "(x)": "OTENSOR", "(+)": "OPLUS",
    "⊗": "OTENSOR", "⊕": "OPLUS",
    ";": "SEMI", ":": "COLON", ",": "COMMA", "=": "EQUALS", "@": "AT",
    "<": "LT", ">": "GT", "/": "SLASH", "_": "UNDERSCORE", "+": "PLUS",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
    "{": "LBRACE", "}": "RBRACE",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        for lexeme in ("->", "(x)", "(+)"):
            if text.startswith(lexeme, i):
                tokens.append(Token(PUNCT[lexeme], lexeme, start_line, start_col))
                i += len(lexeme)
                col += len(lexeme)
                break
        else:
            if ch in PUNCT:
                tokens.append(Token(PUNCT[ch], ch, start_line, start_col))
                i += 1
                col += 1
            elif ch in "0123456789":
                j = i
                while j < n and text[j] in "0123456789":
                    j += 1
                if j < n and text[j] == ".":
                    raise ParseError("decimal literals are not supported; "
                                     "write an exact rational like 1/2",
                                     start_line, start_col)
                tokens.append(Token("INT", text[i:j], start_line, start_col))
                col += j - i
                i = j
            elif ch.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_'"):
                    j += 1
                tokens.append(Token("IDENT", text[i:j], start_line, start_col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}",
                                 start_line, start_col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


def ascii_int(text: str) -> int | None:
    """The value of a numeral of ASCII digits; None for any other text,
    and for numerals longer than Python converts (by default 4300 digits)."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def split_sorts(text: str, sorts: tuple[str, ...]) -> list[str] | None:
    """Greedy longest-match split of a glued identifier into sort names.

    The first split in longest-name-first order, searched depth first on
    an explicit stack.  A position from which no split exists is tried
    only once, so the search takes time linear in the length of text."""
    names = sorted(sorts, key=len, reverse=True)
    while names and not names[-1]:
        names.pop()                    # an empty name would never advance
    dead: set[int] = set()
    stack = []                         # (position, names left to try there)
    parts: list[str] = []
    pos, todo = 0, iter(names)
    while pos < len(text):
        for name in todo:
            end = pos + len(name)
            if text.startswith(name, pos) and end not in dead:
                stack.append((pos, todo))
                parts.append(name)
                pos, todo = end, iter(names)
                break
        else:
            dead.add(pos)
            if not stack:
                return None
            pos, todo = stack.pop()
            parts.pop()
    return parts


# spelling -> (surface key, argument count), read from surface's atom tables
TAPE_SPELLINGS = {s: (kind, n) for kind, (s, n, _) in TAPE_ATOMS.items()}
CIRCUIT_SPELLINGS = {s: (cls, n) for cls, (s, n, _) in CIRCUIT_ATOMS.items()}
TAPE_ATOM_KEYWORDS = {s.rstrip("+") for s in TAPE_SPELLINGS} | {"op", "term"}

# token kind -> (constructor, precedence level), read from surface.INFIX;
# object expressions take the rows of the tape products they share symbols with.
TAPE_OPS = {INFIX[c][0]: (c, INFIX[c][2]) for c in (SSeq, STensor, SSum)}
CIRCUIT_OPS = {INFIX[c][0]: (c, INFIX[c][2]) for c in (CSeqS, CTensorS)}
OBJECT_OPS = {INFIX[s][0]: (c, INFIX[s][2]) for s, c in ((STensor, Tensor),
                                                          (SSum, Sum))}
# Σ-term `+` and `+_p`, one level; infix reads the operation after the `+`.
SIGMA_OPS = {"PLUS": (App, 0)}
OPEN = (None, -2)    # an open parenthesis on infix's operator stack

RESERVED = TAPE_ATOM_KEYWORDS | set(CIRCUIT_SPELLINGS) | {
    "sort", "gen", "theory", "interp", "def", "check", "with", "model",
    "star", "id1"}


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.module = SourceModule()
        self.sorts: tuple[str, ...] = ()
        self.gen_names: set[str] = set()
        self.def_names: set[str] = set()
        self.theory_names: set[str] = set()
        self.interp_names: set[str] = set()

    # -- token plumbing --------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, expected: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.kind} {tok.text!r}",
                             tok.line, tok.col, {expected or kind})
        return self.next()

    def fail(self, message: str, expected: set[str] | None = None):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected or set())

    # -- names and small pieces -------------------------------------------

    def fresh_name(self, kind: str, taken: set[str]) -> str:
        tok = self.expect("IDENT", "a name")
        if tok.text in RESERVED:
            raise ParseError(f"{tok.text!r} is a reserved word",
                             tok.line, tok.col)
        if tok.text in taken:
            raise ParseError(f"duplicate {kind} name {tok.text}",
                             tok.line, tok.col)
        return tok.text

    def expect_word(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col,
                             {word})
        return self.next()

    def integer(self, what: str) -> int:
        tok = self.expect("INT", what)
        value = ascii_int(tok.text)
        if value is None:
            raise ParseError(f"numeral of {len(tok.text)} digits is too long",
                             tok.line, tok.col)
        return value

    def rational(self) -> Fraction:
        num = self.integer("a rational number")
        if not self.accept("SLASH"):
            return Fraction(num)
        tok = self.peek()
        den = self.integer("a denominator")
        if den == 0:
            raise ParseError("zero denominator", tok.line, tok.col)
        return Fraction(num, den)

    def monomial_token(self, tok: Token) -> Monomial:
        if tok.kind == "INT" and tok.text == "1":
            return ONE
        if tok.kind != "IDENT":
            raise ParseError(f"expected a monomial, found {tok.text!r}",
                             tok.line, tok.col, {"monomial"})
        parts = split_sorts(tok.text, self.sorts)
        if parts is None:
            raise ParseError(
                f"cannot read {tok.text!r} as a word of declared sorts",
                tok.line, tok.col)
        return Monomial(tuple(parts))

    def splittable(self, tok: Token) -> bool:
        if tok.kind == "INT" and tok.text == "1":
            return True
        return tok.kind == "IDENT" and split_sorts(tok.text, self.sorts) is not None

    def monomial(self) -> Monomial:
        m = self.monomial_token(self.next())
        while self.splittable(self.peek()):
            m = m * self.monomial_token(self.next())
        return m

    def poly_arg(self) -> Polynomial:
        """A polynomial in @-argument position; greedy over (+)."""
        if self.at("INT", "0"):
            self.next()
            return ZERO
        p = poly_of_mono(self.monomial())
        while self.at("OPLUS"):
            save = self.pos
            self.next()
            if self.splittable(self.peek()):
                p = p + poly_of_mono(self.monomial())
            else:
                self.pos = save
                break
        return p

    # -- declarations ------------------------------------------------------

    def parse_module(self) -> SourceModule:
        while not self.at("EOF"):
            tok = self.peek()
            if tok.kind != "IDENT":
                self.fail(f"expected a declaration, found {tok.text!r}",
                          {"sort", "gen", "theory", "interp", "def", "check"})
            handler = {
                "sort": self.sort_decl, "gen": self.gen_decl,
                "theory": self.theory_decl, "interp": self.interp_decl,
                "def": self.def_decl, "check": self.check_decl,
            }.get(tok.text)
            if handler is None:
                self.fail(f"unknown declaration {tok.text!r}",
                          {"sort", "gen", "theory", "interp", "def", "check"})
            handler()
        return self.module

    def sort_decl(self):
        self.next()
        name = self.fresh_name("sort", set(self.sorts))
        self.expect("SEMI", "';'")
        self.sorts = self.sorts + (name,)
        self.module.decls.append(SortDecl(name))

    def gen_decl(self):
        self.next()
        name = self.fresh_name("generator", self.gen_names)
        self.expect("COLON", "':'")
        ar = self.monomial()
        self.expect("ARROW", "'->'")
        coar = self.monomial()
        self.expect("SEMI", "';'")
        self.gen_names.add(name)
        self.module.decls.append(GenDecl(name, ar, coar))

    def theory_decl(self):
        self.next()
        name = self.fresh_name("theory", self.theory_names)
        if name not in ("PCA", "CM"):
            self.fail(f"unknown theory {name!r}", {"PCA", "CM"})
        params: list[Fraction] = []
        if self.accept("IDENT", "with"):
            self.expect("IDENT", "'p'")
            self.expect("EQUALS", "'='")
            params.append(self.rational())
            while self.accept("COMMA"):
                params.append(self.rational())
        self.expect("SEMI", "';'")
        self.theory_names.add(name)
        self.module.decls.append(TheoryDecl(name, tuple(params)))

    def interp_decl(self):
        self.next()
        name = self.fresh_name("interpretation", self.interp_names)
        self.expect("LBRACE", "'{'")
        carriers, matrices, model = [], [], None
        while not self.at("RBRACE"):
            key = self.expect("IDENT", "an interpretation item")
            self.expect("EQUALS", "'='")
            if key.text == "model":
                model = self.expect("IDENT", "a theory name").text
                if model not in self.theory_names:
                    raise ParseError(f"theory {model} is not declared",
                                     key.line, key.col)
            elif self.at("LBRACE"):
                self.next()
                labels = []
                if not self.at("RBRACE"):
                    labels.append(self.label())
                    while self.accept("COMMA"):
                        labels.append(self.label())
                self.expect("RBRACE", "'}'")
                if key.text not in self.sorts:
                    raise ParseError(f"sort {key.text} is not declared",
                                     key.line, key.col)
                carriers.append((key.text, tuple(labels)))
            elif self.at("LBRACK"):
                rows = self.matrix_literal()
                if key.text not in self.gen_names:
                    raise ParseError(f"generator {key.text} is not declared",
                                     key.line, key.col)
                matrices.append((key.text, rows))
            else:
                self.fail("expected '{', '[' or a theory name")
            self.expect("SEMI", "';'")
        self.expect("RBRACE", "'}'")
        if model is None:
            self.fail(f"interpretation {name} lacks a model item")
        self.interp_names.add(name)
        self.module.decls.append(InterpDecl(name, tuple(carriers),
                                            tuple(matrices), model))

    def label(self) -> str:
        tok = self.peek()
        if tok.kind in ("IDENT", "INT"):
            return self.next().text
        self.fail("expected a carrier label", {"identifier", "number"})

    def matrix_literal(self):
        self.expect("LBRACK", "'['")
        rows = []
        while self.at("LBRACK"):
            self.next()
            row = []
            if not self.at("RBRACK"):
                row.append(self.rational())
                while self.accept("COMMA"):
                    row.append(self.rational())
            self.expect("RBRACK", "']'")
            rows.append(tuple(row))
            if not self.accept("COMMA"):
                break
        self.expect("RBRACK", "']'")
        return tuple(rows)

    def def_decl(self):
        self.next()
        name = self.fresh_name("definition", self.def_names)
        self.expect("EQUALS", "'='")
        body = self.infix(TAPE_OPS, self.tape_atom)
        self.expect("SEMI", "';'")
        self.def_names.add(name)
        self.module.decls.append(DefDecl(name, body))

    def check_decl(self):
        self.next()
        left = self.expect("IDENT", "a definition name").text
        self.expect("EQUALS", "'='")
        right = self.expect("IDENT", "a definition name").text
        self.expect_word("with")
        interp = self.expect("IDENT", "an interpretation name").text
        self.expect("SEMI", "';'")
        for ref in (left, right):
            if ref not in self.def_names:
                self.fail(f"check refers to undefined name {ref}")
        if interp not in self.interp_names:
            self.fail(f"check refers to undeclared interpretation {interp}")
        self.module.decls.append(CheckDecl(left, right, interp))

    # -- infix expressions ------------------------------------------------------

    def infix(self, ops: dict, atom):
        """Left-associative infix products of atom()s.  ops maps a token
        kind to its constructor and precedence level, 0 binding loosest.
        '(' is a marker on the operator stack that ')' pops (Dijkstra's
        shunting-yard), so nesting costs no recursion.  A ';' composes tapes
        only when a tape atom follows it; otherwise it closes the
        surrounding declaration."""
        operands, pending = [], []
        while True:
            while self.accept("LPAREN"):
                pending.append(OPEN)
            operands.append(atom())
            while True:
                op = ops.get(self.peek().kind)
                if op is not None and op[0] is SSeq and not self.starts_tape_atom(1):
                    op = None
                level = -1 if op is None else op[1]
                while pending and pending[-1][1] >= level:
                    right = operands.pop()
                    operands[-1] = pending.pop()[0](operands[-1], right)
                if op is not None:
                    self.next()
                    if op[0] is App:    # `+` or `+_p`: read its operation
                        op = (self.plus_op(), op[1])
                    pending.append(op)
                    break
                if not pending:
                    return operands[0]
                self.expect("RPAREN", "')'")
                pending.pop()

    def table_atom(self, spellings: dict, arg):
        """The surface key and arguments of the table atom the next tokens
        spell, or None.  `sym +` commits once both tokens are read and then
        expects '@'; any other atom that takes arguments is one only with
        '@' right after its name."""
        text = self.peek().text
        glued = self.at("PLUS", ahead=1) and text + "+" in spellings
        key, n = spellings.get(text + "+" if glued else text, (None, 0))
        if not glued and (key is None or (n and not self.at("AT", ahead=1))):
            return None
        self.pos += 2 if glued or n else 1
        if glued:
            self.expect("AT", "'@'")
        args = [arg()] if n else []
        while len(args) < n:
            self.expect("COMMA", "','")
            args.append(arg())
        return key, tuple(args)

    def starts_tape_atom(self, ahead: int) -> bool:
        tok = self.peek(ahead)
        if tok.kind in ("LPAREN", "LBRACK"):
            return True
        return tok.kind == "IDENT" and (
            tok.text in TAPE_ATOM_KEYWORDS or tok.text in self.def_names)

    def tape_atom(self) -> SExpr:
        if self.accept("LBRACK"):
            c = self.infix(CIRCUIT_OPS, self.circuit_atom)
            self.expect("RBRACK", "']'")
            return SCircuit(c)
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail(f"expected a tape expression, found {tok.text!r}",
                      {"atom", "'('", "'['"})
        atom = self.table_atom(TAPE_SPELLINGS, self.poly_arg)
        if atom is not None:
            return SAtom(*atom)
        text = tok.text
        if text == "op" and self.at("LT", ahead=1):
            self.next()
            self.next()
            op = self.op_symbol()
            self.expect("GT", "'>'")
            self.expect("AT", "'@'")
            return SOp(op, self.poly_arg())
        if text == "term" and self.at("LT", ahead=1):
            self.next()
            self.next()
            term = self.infix(SIGMA_OPS, self.sigma_atom)
            self.expect("GT", "'>'")
            self.expect("AT", "'@'")
            poly = self.poly_arg()
            context = max_var(term)
            check_term(term, context)
            return STermBr(term, context, poly)
        if text in self.def_names:
            self.next()
            return SRef(text)
        self.fail(f"unknown tape atom {text!r}; forward references are rejected",
                  TAPE_ATOM_KEYWORDS)

    def op_symbol(self) -> OpSymbol:
        if self.accept("PLUS"):
            return self.plus_op()
        if self.at("IDENT", "star"):
            self.next()
            return STAR
        if self.at("INT", "0"):
            self.next()
            return CM_ZERO
        self.fail("expected an operation symbol",
                  {"+_p", "+", "star", "0"})

    def plus_op(self) -> OpSymbol:
        """The operation of a `+` just read: `+_p` or the monoid's `+`."""
        if self.accept("UNDERSCORE"):
            return choice(self.rational())
        return CM_PLUS

    def sigma_atom(self) -> SigmaTerm:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "star":
            self.next()
            return App(STAR, ())
        if tok.kind == "INT" and tok.text == "0":
            self.next()
            return App(CM_ZERO, ())
        index = ascii_int(tok.text[1:]) if tok.text.startswith("x") else None
        if tok.kind == "IDENT" and index is not None:
            self.next()
            return Var(index)
        self.fail("expected a term", {"x<i>", "star", "0", "'('"})

    # -- circuit expressions -----------------------------------------------------

    def circuit_atom(self) -> CExpr:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail(f"expected a circuit expression, found {tok.text!r}",
                      {"generator", "id<mono>", *CIRCUIT_SPELLINGS, "'('"})
        atom = self.table_atom(CIRCUIT_SPELLINGS, self.monomial)
        if atom is not None:
            cls, args = atom
            return cls(*args)
        text = tok.text
        if text in self.gen_names:
            self.next()
            return CAtomGen(text)
        if text == "id1":
            self.next()
            return CAtomId(ONE)
        if text.startswith("id") and len(text) > 2:
            parts = split_sorts(text[2:], self.sorts)
            if parts is not None:
                self.next()
                return CAtomId(Monomial(tuple(parts)))
        self.fail(f"unknown circuit atom {text!r}",
                  {"generator", "id<mono>", *CIRCUIT_SPELLINGS})


def max_var(term: SigmaTerm) -> int:
    return fold(term, SIGMA_KIDS, lambda t, sub: (
        t.index if isinstance(t, Var) else max(sub, default=0)))


def parse_module(text: str) -> SourceModule:
    return Parser(text).parse_module()


def parse_object_expr(text: str, sorts: tuple[str, ...] | None = None) -> tuple[ObjTerm, tuple[str, ...]]:
    """Parse an object expression for the normalizer.

    When no sort registry is supplied, each letter of every identifier
    counts as a sort, so AB means A (x) B.
    """
    parser = Parser(text)
    auto = sorts is None
    found: list[str] = []
    if not auto:
        parser.sorts = tuple(sorts)

    def atom() -> ObjTerm:
        tok = parser.peek()
        if tok.kind == "INT" and tok.text == "1":
            parser.next()
            return UnitOne()
        if tok.kind == "INT" and tok.text == "0":
            parser.next()
            return ZeroObj()
        if tok.kind == "IDENT":
            parser.next()
            names = list(tok.text) if auto else split_sorts(tok.text, parser.sorts)
            if names is None:
                raise ParseError(
                    f"cannot read {tok.text!r} as a word of declared sorts",
                    tok.line, tok.col)
            for name in names:
                if name not in found:
                    found.append(name)
            term: ObjTerm = SortRef(names[-1])
            for name in reversed(names[:-1]):
                term = Tensor(SortRef(name), term)
            return term
        parser.fail("expected an object expression", {"sort", "0", "1", "'('"})

    term = parser.infix(OBJECT_OPS, atom)
    parser.expect("EOF", "end of input")
    registered = tuple(sorts) if sorts is not None else tuple(found)
    return term, registered
