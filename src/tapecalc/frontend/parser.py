"""Tokenizer and recursive-descent parser for the ``.tape`` format.

Operator precedence is fixed: ``;`` binds loosest, then ``(x)``, then
``(+)``; all three associate to the left.  ``(x)`` and ``(+)`` may also
be written with the Unicode symbols.  Rationals only; decimal literals
are rejected.  Diagnostics carry line, column and the expected tokens.
"""

from __future__ import annotations

import re
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from ..errors import ModelError, ParseError
from ..objects import Monomial, ONE, Polynomial, ZERO, SortRef, Sum, Tensor, \
    UnitOne, ZeroObj, ObjTerm, poly_of_mono
from ..hashcons import fold
from ..theory import App, CM_PLUS, CM_ZERO, OpSymbol, SIGMA_KIDS, STAR, \
    SigmaTerm, Var, check_term, choice
from .surface import (CAtomGen, CAtomId, CIRCUIT_ATOMS, CheckDecl, DefDecl,
                      GenDecl, INFIX, InterpDecl, SAtom, SCircuit, SExpr,
                      SOp, SRef, SSeq, SSum, STensor, STermBr, SortDecl,
                      SourceModule, TAPE_ATOMS, TheoryDecl)


PUNCT = {
    "->": "ARROW", "(x)": "OTENSOR", "(+)": "OPLUS",
    "⊗": "OTENSOR", "⊕": "OPLUS",
    ";": "SEMI", ":": "COLON", ",": "COMMA", "=": "EQUALS", "@": "AT",
    "<": "LT", ">": "GT", "/": "SLASH", "_": "UNDERSCORE", "+": "PLUS",
    "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
    "{": "LBRACE", "}": "RBRACE",
}


# One match per token; the search skips whitespace, as no alternative
# matches it.  Punctuation, longest first so that `(x)` is one token; a
# comment, which tokenize drops; a name, from a letter (`[^\W\d_]` also
# admits `²` and `½`, which tokenize rejects); a numeral, with a `.` to
# reject; any other character, to reject; and the end, the EOF token.
LEXEME = re.compile("|".join((
    *map(re.escape, sorted((p for p in PUNCT if len(p) > 1), key=len,
                           reverse=True)),
    "[" + re.escape("".join(p for p in PUNCT if len(p) == 1)) + "]",
    r"#[^\n]*", r"[^\W\d_][\w']*", r"[0-9]+\.?", r"\S", r"\Z")))


DIGITS = "0123456789"


class Kinds(dict):
    """Token kind by text, seeded with the punctuation's and EOF's: each
    distinct name or numeral is classified on its first lookup, and any
    other text raises KeyError."""

    def __missing__(self, text: str) -> str:
        numeral = text[0] in DIGITS
        if not (text[0].isalpha() or (numeral and text[-1] != ".")):
            raise KeyError(text)
        kind = self[text] = "INT" if numeral else "IDENT"
        return kind


KINDS = Kinds({**PUNCT, "": "EOF"})


@dataclass(frozen=True)
class Tokens:
    """A text's tokens, ending in one EOF token: the i-th has kind kinds[i]
    and text texts[i].  Offsets are not kept: see token_offsets."""
    kinds: list[str]
    texts: list[str]

    def __len__(self) -> int:
        return len(self.texts)


def tokenize(text: str) -> Tokens:
    """The tokens of text.  No Python code runs per token but to drop
    comments; each call classifies its names in its own copy of KINDS."""
    texts = LEXEME.findall(text)
    if "#" in text:
        texts = [t for t in texts if t[:1] != "#"]
    try:
        return Tokens(list(map(Kinds(KINDS).__getitem__, texts)), texts)
    except KeyError as missing:     # at the first text with no kind
        bad = missing.args[0]
        raise parse_error(text, texts.index(bad), (
            "decimal literals are not supported; write an exact rational "
            "like 1/2" if bad[0] in DIGITS
            else f"unexpected character {bad[0]!r}")) from None


def token_offsets(text: str) -> Iterator[int]:
    """Where each token of text starts, found by lexing text again."""
    return (m.start() for m in LEXEME.finditer(text) if m[0][:1] != "#")


def parse_error(text: str, index: int, message: str,
                expected: set[str] | None = None) -> ParseError:
    """A ParseError at the index-th token of text.  Lines and columns
    count from 1; only a newline ends a line, and every other character
    is one column."""
    pos = next(islice(token_offsets(text), index, None))
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos), expected)


def ascii_int(text: str) -> int | None:
    """The value of a numeral of ASCII digits; None for any other text,
    and for numerals longer than Python converts (by default 4300 digits)."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


class SortIndex:
    """Declared sort names, indexed for splitting glued identifiers: for
    each first character, the lengths of the names that start with it,
    longest first.  A split tries at each position only those lengths, one
    set lookup each, so its cost does not grow with the number of sorts."""

    def __init__(self, sorts: Iterable[str] = ()):
        self.names: set[str] = set()
        self.lengths: dict[str, list[int]] = {}
        for name in sorts:
            self.add(name)

    def add(self, name: str) -> None:
        if name and name not in self.names:  # an empty name would never advance
            self.names.add(name)
            lengths = self.lengths.setdefault(name[0], [])
            if len(name) not in lengths:
                lengths.append(len(name))
                lengths.sort(reverse=True)

    def split(self, text: str) -> list[str] | None:
        """Greedy longest-match split of a glued identifier into sort names.

        The first split in longest-name-first order, searched depth first
        on an explicit stack.  A position from which no split exists is
        tried only once, so the search takes time linear in the length of
        text."""
        names, lengths = self.names, self.lengths
        dead: set[int] = set()
        stack = []                     # (position, lengths left to try there)
        parts: list[str] = []
        pos, todo = 0, iter(lengths.get(text[:1], ()))
        while pos < len(text):
            for n in todo:
                end = pos + n
                if (end <= len(text) and text[pos:end] in names
                        and end not in dead):
                    stack.append((pos, todo))
                    parts.append(text[pos:end])
                    pos, todo = end, iter(lengths.get(text[end:end + 1], ()))
                    break
            else:
                dead.add(pos)
                if not stack:
                    return None
                pos, todo = stack.pop()
                parts.pop()
        return parts


# spelling -> (SAtom kind, argument count), read from surface's atom tables
TAPE_SPELLINGS = {s: (kind, n) for kind, (s, n, _) in TAPE_ATOMS.items()}
CIRCUIT_SPELLINGS = {s: (kind, n) for kind, (s, n, _) in CIRCUIT_ATOMS.items()}
TAPE_ATOM_KEYWORDS = {s.rstrip("+") for s in TAPE_SPELLINGS} | {"op", "term"}

# token kind -> (constructor, precedence level), read from surface.INFIX;
# circuits take the tape products but (+), object expressions take the
# rows of the tape products they share symbols with.
TAPE_OPS = {INFIX[c][0]: (c, INFIX[c][2]) for c in (SSeq, STensor, SSum)}
CIRCUIT_OPS = {INFIX[c][0]: (c, INFIX[c][2]) for c in (SSeq, STensor)}
OBJECT_OPS = {INFIX[s][0]: (c, INFIX[s][2]) for s, c in ((STensor, Tensor),
                                                          (SSum, Sum))}
# Σ-term `+` and `+_p`, one level; infix reads the operation after the `+`.
SIGMA_OPS = {"PLUS": (App, 0)}
OPEN = (None, -2)    # an open parenthesis on infix's operator stack

DECLARATIONS = {"sort", "gen", "theory", "interp", "def", "check"}
RESERVED = TAPE_ATOM_KEYWORDS | set(CIRCUIT_SPELLINGS) | DECLARATIONS | {
    "with", "model", "star", "id1"}


class Parser:
    def __init__(self, text: str):
        self.text = text
        tokens = tokenize(text)
        self.kinds, self.texts = tokens.kinds, tokens.texts
        self.pos = 0
        self.module = SourceModule()
        self.sort_index = SortIndex()
        self.sorts: list[str] = []     # module.sorts, frozen at the end
        # each leaf atom built once: a reference by definition name, a
        # generator by its name, an identity by its monomial; and a bracket
        # of one generator or identity by its leaf's id, as the leaves
        # live as long as the parser
        self.refs: dict[str, SRef] = {}
        self.gen_atoms: dict[str, CAtomGen] = {}
        self.id_atoms: dict[Monomial, CAtomId] = {}
        self.brackets: dict[int, SCircuit] = {}

    # -- token plumbing: a token is its index; the cursor stops at EOF ----

    def next(self) -> int:
        pos = self.pos
        if self.kinds[pos] != "EOF":
            self.pos += 1
        return pos

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.kinds[self.pos] == kind and (
            text is None or self.texts[self.pos] == text)

    def accept(self, kind: str, text: str | None = None) -> bool:
        if self.at(kind, text):
            self.next()
            return True
        return False

    def expect(self, kind: str, expected: str | None = None) -> int:
        found = self.kinds[self.pos]
        if found != kind:
            self.fail(f"unexpected {found} {self.texts[self.pos]!r}",
                      {expected or kind})
        return self.next()

    def fail(self, message: str, expected: set[str] | None = None,
             tok: int | None = None):
        """Raise a ParseError at token tok, by default at the next one."""
        raise parse_error(self.text, self.pos if tok is None else tok,
                          message, expected)

    # -- names and small pieces -------------------------------------------

    def fresh_name(self, kind: str, taken: Container[str]) -> str:
        tok = self.expect("IDENT", "a name")
        name = self.texts[tok]
        if name in RESERVED:
            self.fail(f"{name!r} is a reserved word", tok=tok)
        if name in taken:
            self.fail(f"duplicate {kind} name {name}", tok=tok)
        return name

    def expect_word(self, word: str) -> None:
        if not self.at("IDENT", word):
            self.fail(f"unexpected {self.texts[self.pos]!r}", {word})
        self.next()

    def integer(self, what: str) -> int:
        tok = self.expect("INT", what)
        value = ascii_int(self.texts[tok])
        if value is None:
            self.fail(f"numeral of {len(self.texts[tok])} digits is too long",
                      tok=tok)
        return value

    def rational(self) -> Fraction:
        num = self.integer("a rational number")
        if not self.accept("SLASH"):
            return Fraction(num)
        tok = self.pos
        den = self.integer("a denominator")
        if den == 0:
            self.fail("zero denominator", tok=tok)
        return Fraction(num, den)

    def word(self, tok: int) -> Monomial | None:
        """The monomial that one token spells: `1`, or a glued identifier
        split into declared sorts; None for any other token."""
        kind, text = self.kinds[tok], self.texts[tok]
        if kind == "INT" and text == "1":
            return ONE
        parts = self.sort_index.split(text) if kind == "IDENT" else None
        return None if parts is None else Monomial(tuple(parts))

    def monomial(self, first: Monomial | None = None) -> Monomial:
        """Juxtaposed words; first is the word of the token just read, if
        the caller has read one.  Each token is split once."""
        m = first
        if m is None:
            tok = self.next()
            kind, text = self.kinds[tok], self.texts[tok]
            m = self.word(tok)
            if kind != "IDENT" and m is None:
                self.fail(f"expected a monomial, found {text!r}", {"monomial"},
                          tok)
            if m is None:
                self.fail(f"cannot read {text!r} as a word of declared sorts",
                          tok=tok)
        while (w := self.word(self.pos)) is not None:
            self.next()
            m = m * w
        return m

    def poly_arg(self) -> Polynomial:
        """A polynomial in @-argument position; greedy over (+)."""
        if self.at("INT", "0"):
            self.next()
            return ZERO
        p = poly_of_mono(self.monomial())
        while self.at("OPLUS") and (w := self.word(self.pos + 1)) is not None:
            self.pos += 2
            p = p + poly_of_mono(self.monomial(w))
        return p

    # -- declarations ------------------------------------------------------

    def parse_module(self) -> SourceModule:
        """Each declaration by the method named after its keyword, called
        with the keyword read."""
        while not self.at("EOF"):
            kind, text = self.kinds[self.pos], self.texts[self.pos]
            if kind != "IDENT" or text not in DECLARATIONS:
                self.fail(f"unknown declaration {text!r}" if kind == "IDENT"
                          else f"expected a declaration, found {text!r}",
                          DECLARATIONS)
            self.next()
            getattr(self, text + "_decl")()
        self.module.sorts = tuple(self.sorts)
        return self.module

    def sort_decl(self):
        name = self.fresh_name("sort", self.sort_index.names)
        self.expect("SEMI", "';'")
        self.sorts.append(name)
        self.sort_index.add(name)
        self.module.decls.append(SortDecl(name))

    def gen_decl(self):
        name = self.fresh_name("generator", self.module.gens)
        self.expect("COLON", "':'")
        ar = self.monomial()
        self.expect("ARROW", "'->'")
        coar = self.monomial()
        self.expect("SEMI", "';'")
        self.module.gens[name] = (ar, coar)
        self.gen_atoms[name] = CAtomGen(name)
        self.module.decls.append(GenDecl(name, ar, coar))

    def theory_decl(self):
        name = self.fresh_name("theory", self.module.theories)
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
        self.module.theories[name] = tuple(params)
        self.module.decls.append(TheoryDecl(name, tuple(params)))

    def interp_decl(self):
        """An interpretation block: a carrier per sort, a matrix per
        generator and one model, each given at most once."""
        name = self.fresh_name("interpretation", self.module.interps)
        self.expect("LBRACE", "'{'")
        carriers, matrices, model = {}, {}, None
        while not self.at("RBRACE"):
            key = self.expect("IDENT", "an interpretation item")
            item = self.texts[key]
            self.expect("EQUALS", "'='")
            if item == "model":
                if model is not None:
                    self.fail(f"duplicate model item in interpretation {name}",
                              tok=key)
                model = self.texts[self.expect("IDENT", "a theory name")]
                if model not in self.module.theories:
                    self.fail(f"theory {model} is not declared", tok=key)
            elif self.at("LBRACE"):
                if item in carriers:
                    self.fail(f"duplicate carrier of sort {item}", tok=key)
                self.next()
                labels = []
                if not self.at("RBRACE"):
                    labels.append(self.label())
                    while self.accept("COMMA"):
                        labels.append(self.label())
                self.expect("RBRACE", "'}'")
                if item not in self.sort_index.names:
                    self.fail(f"sort {item} is not declared", tok=key)
                carriers[item] = tuple(labels)
            elif self.at("LBRACK"):
                if item in matrices:
                    self.fail(f"duplicate matrix of generator {item}", tok=key)
                rows = self.matrix_literal()
                if item not in self.module.gens:
                    self.fail(f"generator {item} is not declared", tok=key)
                matrices[item] = rows
            else:
                self.fail("expected '{', '[' or a theory name")
            self.expect("SEMI", "';'")
        self.expect("RBRACE", "'}'")
        if model is None:
            self.fail(f"interpretation {name} lacks a model item")
        decl = InterpDecl(name, tuple(carriers.items()),
                          tuple(matrices.items()), model)
        self.module.interps[name] = decl
        self.module.decls.append(decl)

    def label(self) -> str:
        if self.kinds[self.pos] in ("IDENT", "INT"):
            return self.texts[self.next()]
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
        name = self.fresh_name("definition", self.module.defs)
        self.expect("EQUALS", "'='")
        body = self.infix(TAPE_OPS, self.tape_atom)
        self.expect("SEMI", "';'")
        self.module.defs[name] = body
        self.refs[name] = SRef(name)
        self.module.decls.append(DefDecl(name, body))

    def check_decl(self):
        left = self.texts[self.expect("IDENT", "a definition name")]
        self.expect("EQUALS", "'='")
        right = self.texts[self.expect("IDENT", "a definition name")]
        self.expect_word("with")
        interp = self.texts[self.expect("IDENT", "an interpretation name")]
        self.expect("SEMI", "';'")
        for ref in (left, right):
            if ref not in self.module.defs:
                self.fail(f"check refers to undefined name {ref}")
        if interp not in self.module.interps:
            self.fail(f"check refers to undeclared interpretation {interp}")
        check = CheckDecl(left, right, interp)
        self.module.checks.append(check)
        self.module.decls.append(check)

    # -- infix expressions ------------------------------------------------------

    def infix(self, ops: dict, atom):
        """Left-associative infix products of atom()s.  ops maps a token
        kind to its constructor and precedence level, 0 binding loosest.
        '(' is a marker on the operator stack that ')' pops (Dijkstra's
        shunting-yard), so nesting costs no recursion.  Between tapes, a ';'
        composes only when a tape atom follows it; otherwise it closes the
        surrounding declaration.  Inside a circuit bracket every ';'
        composes.  Like the atoms, it reads the tokens by index: no
        helper call per token."""
        kinds = self.kinds
        operands, pending = [], []
        while True:
            while kinds[self.pos] == "LPAREN":
                self.pos += 1
                pending.append(OPEN)
            operands.append(atom())
            while True:
                op = ops.get(kinds[self.pos])
                if op is not None and op[0] is SSeq and ops is TAPE_OPS:
                    kind, text = kinds[self.pos + 1], self.texts[self.pos + 1]
                    if not (kind in ("LPAREN", "LBRACK") or kind == "IDENT" and (
                            text in TAPE_ATOM_KEYWORDS or text in self.refs)):
                        op = None       # the ';' ends the declaration
                level = -1 if op is None else op[1]
                while pending and pending[-1][1] >= level:
                    right = operands.pop()
                    operands[-1] = pending.pop()[0](operands[-1], right)
                if op is not None:
                    self.pos += 1
                    if op[0] is App:    # `+` or `+_p`: read its operation
                        op = (self.plus_op(), op[1])
                    pending.append(op)
                    break
                if not pending:
                    return operands[0]
                self.close("RPAREN", "')'")
                pending.pop()

    def close(self, kind: str, expected: str) -> None:
        """Step over the closing token of a bracket, which must come next."""
        if self.kinds[self.pos] != kind:
            self.expect(kind, expected)     # raises
        self.pos += 1

    def table_atom(self, spellings: dict, arg):
        """The surface key and arguments of the table atom the next tokens
        spell, or None.  `sym +` commits once both tokens are read and then
        expects '@'; any other atom that takes arguments is one only with
        '@' right after its name."""
        pos = self.pos
        text, after = self.texts[pos], self.kinds[pos + 1]
        glued = after == "PLUS" and text + "+" in spellings
        key, n = spellings.get(text + "+" if glued else text, (None, 0))
        if not glued and (key is None or (n and after != "AT")):
            return None
        self.pos = pos + (2 if glued or n else 1)
        if glued:
            self.expect("AT", "'@'")
        args = [arg()] if n else []
        while len(args) < n:
            self.expect("COMMA", "','")
            args.append(arg())
        return key, tuple(args)

    def tape_atom(self) -> SExpr:
        """A definition's name first: none is spelt as an atom keyword,
        as fresh_name rejects the reserved words."""
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        ref = self.refs.get(text)
        if ref is not None:
            self.pos = pos + 1
            return ref
        if kind == "LBRACK":
            # `[ G ]` for a generator G needs no circuit infix; as the
            # tokens end in EOF, pos + 2 exists once pos + 1 is a name
            c = self.gen_atoms.get(self.texts[pos + 1])
            if c is not None and self.kinds[pos + 2] == "RBRACK":
                self.pos = pos + 3
            else:
                self.pos = pos + 1
                c = self.infix(CIRCUIT_OPS, self.circuit_atom)
                self.close("RBRACK", "']'")
            if type(c) not in (CAtomGen, CAtomId):
                return SCircuit(c)
            bracket = self.brackets.get(id(c))
            if bracket is None:
                bracket = self.brackets[id(c)] = SCircuit(c)
            return bracket
        if kind != "IDENT":
            self.fail(f"expected a tape expression, found {text!r}",
                      {"atom", "'('", "'['"})
        atom = self.table_atom(TAPE_SPELLINGS, self.poly_arg)
        if atom is not None:
            return SAtom(*atom)
        if text in ("op", "term") and self.kinds[pos + 1] == "LT":
            self.pos = pos + 2
            if text == "op":
                op = self.op_symbol()
                self.expect("GT", "'>'")
                self.expect("AT", "'@'")
                return SOp(op, self.poly_arg())
            term = self.infix(SIGMA_OPS, self.sigma_atom)
            self.expect("GT", "'>'")
            self.expect("AT", "'@'")
            poly = self.poly_arg()
            context = max_var(term)
            check_term(term, context)
            return STermBr(term, context, poly)
        self.fail(f"unknown tape atom {text!r}; forward references are rejected",
                  TAPE_ATOM_KEYWORDS)

    def op_symbol(self) -> OpSymbol:
        if self.accept("PLUS"):
            return self.plus_op()
        if self.accept("IDENT", "star"):
            return STAR
        if self.accept("INT", "0"):
            return CM_ZERO
        self.fail("expected an operation symbol", {"+_p", "+", "star", "0"})

    def plus_op(self) -> OpSymbol:
        """The operation of a `+` just read: `+_p` or the monoid's `+`."""
        if self.accept("UNDERSCORE"):
            tok = self.pos
            p = self.rational()
            try:
                return choice(p)
            except ModelError as exc:
                self.fail(str(exc), tok=tok)
        return CM_PLUS

    def sigma_atom(self) -> SigmaTerm:
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if (kind, text) in (("IDENT", "star"), ("INT", "0")):
            self.next()
            return App(STAR if text == "star" else CM_ZERO, ())
        index = ascii_int(text[1:]) if text.startswith("x") else None
        if kind == "IDENT" and index is not None:
            self.next()
            return Var(index)
        self.fail("expected a term", {"x<i>", "star", "0", "'('"})

    # -- circuit expressions -----------------------------------------------------

    def circuit_atom(self) -> SExpr:
        """A generator's name first: none is spelt as a circuit atom, as
        fresh_name rejects the reserved words."""
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        atom = self.gen_atoms.get(text)
        if atom is not None:
            self.pos = pos + 1
            return atom
        if kind != "IDENT":
            self.fail(f"expected a circuit expression, found {text!r}",
                      {"generator", "id<mono>", *CIRCUIT_SPELLINGS, "'('"})
        atom = self.table_atom(CIRCUIT_SPELLINGS, self.monomial)
        if atom is not None:
            return SAtom(*atom)
        if text == "id1":
            mono = ONE
        else:
            parts = (self.sort_index.split(text[2:])
                     if text.startswith("id") and len(text) > 2 else None)
            if parts is None:
                self.fail(f"unknown circuit atom {text!r}",
                          {"generator", "id<mono>", *CIRCUIT_SPELLINGS})
            mono = Monomial(tuple(parts))
        self.pos = pos + 1
        atom = self.id_atoms.get(mono)
        if atom is None:
            atom = self.id_atoms[mono] = CAtomId(mono)
        return atom


def max_var(term: SigmaTerm) -> int:
    return fold((term,), SIGMA_KIDS, lambda t, sub: (
        t.index if isinstance(t, Var) else max(sub, default=0)))[0]


def parse_module(text: str) -> SourceModule:
    return Parser(text).parse_module()


def parse_object_expr(text: str) -> tuple[ObjTerm, tuple[str, ...]]:
    """Parse an object expression for the normalizer, and list its sorts
    in order of first use: each letter of every identifier counts as a
    sort, so AB means A (x) B.
    """
    parser = Parser(text)
    found: list[str] = []

    def atom() -> ObjTerm:
        kind, text = parser.kinds[parser.pos], parser.texts[parser.pos]
        if kind == "INT" and text in ("0", "1"):
            parser.next()
            return UnitOne() if text == "1" else ZeroObj()
        if kind == "IDENT":
            parser.next()
            for name in text:
                if name not in found:
                    found.append(name)
            term: ObjTerm = SortRef(text[-1])
            for name in reversed(text[:-1]):
                term = Tensor(SortRef(name), term)
            return term
        parser.fail("expected an object expression", {"sort", "0", "1", "'('"})

    term = parser.infix(OBJECT_OPS, atom)
    parser.expect("EOF", "end of input")
    return term, tuple(found)
