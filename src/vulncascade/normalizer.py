"""C/C++ lexer and token canonicalization.

Source fragments are lexed into classified tokens, then user identifiers and
literals are rewritten into a fixed canonical namespace: variables become
``VAR0, VAR1, ...`` and function names ``FUNC0, FUNC1, ...`` in order of first
occurrence, numeric literals become ``NUMBER``, string literals ``STRING`` and
character literals ``CHAR``.  Keywords, operators and punctuators pass through
verbatim; comments and preprocessor directives are dropped.  Two samples that
differ only in identifier naming therefore produce the same token stream.

All functions here are pure; callers may normalize many samples in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

# C89/C99 keywords plus the C++17 keyword set.  Keywords are never rewritten.
C_KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if", "int",
    "long", "register", "return", "short", "signed", "sizeof", "static",
    "struct", "switch", "typedef", "union", "unsigned", "void", "volatile",
    "while",
    # C99
    "inline", "restrict", "_Bool", "_Complex", "_Imaginary",
}

CPP_KEYWORDS = {
    "alignas", "alignof", "and", "and_eq", "asm", "bitand", "bitor", "bool",
    "catch", "char16_t", "char32_t", "class", "compl", "constexpr",
    "const_cast", "decltype", "delete", "dynamic_cast", "explicit", "export",
    "false", "friend", "mutable", "namespace", "new", "noexcept", "not",
    "not_eq", "nullptr", "operator", "or", "or_eq", "private", "protected",
    "public", "reinterpret_cast", "static_assert", "static_cast", "template",
    "this", "thread_local", "throw", "true", "try", "typeid", "typename",
    "using", "virtual", "wchar_t", "xor", "xor_eq",
}

KEYWORDS = C_KEYWORDS | CPP_KEYWORDS

# Canonical placeholder texts.  These are treated as reserved: an identifier
# spelled exactly like one of them passes through unchanged, which makes
# normalization idempotent on its own output.
CANONICAL_LITERALS = {"NUMBER", "STRING", "CHAR"}

_OPS3 = ("<<=", ">>=", "...", "->*")
_OPS2 = ("->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
         "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::", ".*")
_OPS1 = set("+-*/%&|^~!<>=?:.")
_PUNCT1 = set("()[]{};,")

_STRING_PREFIXES = {"L", "u", "U", "u8"}


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    OPERATOR = "operator"
    PUNCTUATOR = "punctuator"
    COMMENT = "comment"
    PREPROCESSOR = "preprocessor"


class IdentifierRole(Enum):
    VARIABLE = "variable"
    FUNCTION = "function"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class LexIssue:
    """Recoverable lexing problem (unterminated construct), with position."""

    kind: str  # "unterminated_string" | "unterminated_char" | "unterminated_comment"
    line: int
    column: int


@dataclass
class NormalizedSample:
    tokens: list[str]
    source_id: str = ""

    def text(self) -> str:
        return " ".join(self.tokens)


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class _Scanner:
    """Single-pass character scanner with line/column tracking."""

    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def eof(self) -> bool:
        return self.pos >= len(self.src)

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def advance(self) -> str:
        ch = self.src[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def match(self, text: str) -> bool:
        if self.src.startswith(text, self.pos):
            for _ in text:
                self.advance()
            return True
        return False


def tokenize(source: str, issues: list[LexIssue] | None = None) -> list[Token]:
    """Lex a C/C++ fragment into tokens.

    Every non-whitespace character lands in exactly one token.  Comments and
    preprocessor directives are emitted as their own token kinds.  Unterminated
    strings, character literals and block comments are closed at end of line /
    end of input and recorded in ``issues`` when a list is supplied; lexing
    always runs to completion.
    """
    sc = _Scanner(source)
    tokens: list[Token] = []

    def note(kind: str, line: int, col: int) -> None:
        if issues is not None:
            issues.append(LexIssue(kind, line, col))

    def scan_quoted(quote: str, prefix: str, line: int, col: int) -> Token:
        # sc is positioned on the opening quote
        text = prefix + sc.advance()
        terminated = False
        while not sc.eof():
            ch = sc.peek()
            if ch == "\n":
                break
            if ch == "\\" and sc.peek(1) != "":
                text += sc.advance()
                text += sc.advance()
                continue
            text += sc.advance()
            if ch == quote:
                terminated = True
                break
        if not terminated:
            note("unterminated_string" if quote == '"' else "unterminated_char", line, col)
            text += quote
        kind = TokenKind.STRING if quote == '"' else TokenKind.CHAR
        return Token(kind, text, line, col)

    while not sc.eof():
        ch = sc.peek()
        if ch in " \t\r\n\f\v":
            sc.advance()
            continue

        line, col = sc.line, sc.col

        # comments
        if ch == "/" and sc.peek(1) == "*":
            sc.advance()
            sc.advance()
            text = "/*"
            closed = False
            while not sc.eof():
                if sc.peek() == "*" and sc.peek(1) == "/":
                    sc.advance()
                    sc.advance()
                    text += "*/"
                    closed = True
                    break
                text += sc.advance()
            if not closed:
                note("unterminated_comment", line, col)
                text += "*/"
            tokens.append(Token(TokenKind.COMMENT, text, line, col))
            continue
        if ch == "/" and sc.peek(1) == "/":
            text = ""
            while not sc.eof() and sc.peek() != "\n":
                text += sc.advance()
            tokens.append(Token(TokenKind.COMMENT, text, line, col))
            continue

        # preprocessor directive: '#' to end of line, honoring backslash
        # continuations.  Continuations are folded to single spaces so the
        # stored text never contains a newline.
        if ch == "#":
            text = ""
            while not sc.eof() and sc.peek() != "\n":
                if sc.peek() == "\\" and sc.peek(1) == "\n":
                    sc.advance()
                    sc.advance()
                    text += " "
                    continue
                if sc.peek() == "\\" and sc.peek(1) == "\r" and sc.peek(2) == "\n":
                    sc.advance()
                    sc.advance()
                    sc.advance()
                    text += " "
                    continue
                text += sc.advance()
            tokens.append(Token(TokenKind.PREPROCESSOR, text.rstrip(), line, col))
            continue

        # string / char literals
        if ch in "\"'":
            tokens.append(scan_quoted(ch, "", line, col))
            continue

        # identifiers, keywords and prefixed literals (L"...", u8"...")
        if _is_ident_start(ch):
            text = sc.advance()
            while not sc.eof() and _is_ident_char(sc.peek()):
                text += sc.advance()
            if text in _STRING_PREFIXES and sc.peek() in ('"', "'"):
                tokens.append(scan_quoted(sc.peek(), text, line, col))
                continue
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
            tokens.append(Token(kind, text, line, col))
            continue

        # numbers, using the preprocessor "pp-number" rule: a digit (or a dot
        # followed by a digit) then any run of identifier characters and dots,
        # with e/E/p/P allowed to absorb a following sign.  This covers hex,
        # octal, floats, exponents and suffixes in one shape.
        if ch.isdigit() or (ch == "." and sc.peek(1).isdigit()):
            text = sc.advance()
            while not sc.eof():
                nxt = sc.peek()
                if _is_ident_char(nxt) or nxt == ".":
                    text += sc.advance()
                    if text[-1] in "eEpP" and sc.peek() in ("+", "-"):
                        text += sc.advance()
                else:
                    break
            tokens.append(Token(TokenKind.NUMBER, text, line, col))
            continue

        # operators and punctuators, longest match first
        three = source[sc.pos:sc.pos + 3]
        if three in _OPS3:
            sc.match(three)
            kind = TokenKind.PUNCTUATOR if three == "..." else TokenKind.OPERATOR
            tokens.append(Token(kind, three, line, col))
            continue
        two = source[sc.pos:sc.pos + 2]
        if two in _OPS2:
            sc.match(two)
            tokens.append(Token(TokenKind.OPERATOR, two, line, col))
            continue
        if ch in _OPS1:
            sc.advance()
            tokens.append(Token(TokenKind.OPERATOR, ch, line, col))
            continue
        if ch in _PUNCT1:
            sc.advance()
            tokens.append(Token(TokenKind.PUNCTUATOR, ch, line, col))
            continue

        # anything else (stray @, $, backticks...) is kept as a one-character
        # punctuator so no input byte is silently lost
        sc.advance()
        tokens.append(Token(TokenKind.PUNCTUATOR, ch, line, col))

    return tokens


# Token kinds that do not survive normalization.  Lookahead for function-name
# detection skips these, so classification agrees with the normalized stream.
_DROPPED = (TokenKind.COMMENT, TokenKind.PREPROCESSOR)


def split_functions(tokens: list[Token]) -> list[tuple[str, int, list[Token]]]:
    """Best-effort extraction of top-level function definitions.

    Returns (name, line, tokens) triples, where tokens is the definition's
    slice of the input, comments and directives inside it included; an
    empty list means the caller should fall back to the whole token list.
    """
    # positions of the tokens that survive normalization; structure is
    # found on those alone
    code = [i for i, t in enumerate(tokens) if t.kind not in _DROPPED]
    toks = [tokens[i] for i in code]
    functions = []
    i, depth = 0, 0
    decl_start = None  # index in toks of the current declaration's first token
    while i < len(toks):
        t = toks[i]
        if depth == 0 and decl_start is None:
            decl_start = i
        if depth == 0 and t.kind is TokenKind.IDENTIFIER and i + 1 < len(toks) \
                and toks[i + 1].text == "(":
            j, parens = i + 1, 0
            while j < len(toks):
                if toks[j].text == "(":
                    parens += 1
                elif toks[j].text == ")":
                    parens -= 1
                    if parens == 0:
                        break
                j += 1
            if j + 1 < len(toks) and toks[j + 1].text == "{":
                k, braces = j + 1, 0
                while k < len(toks):
                    if toks[k].text == "{":
                        braces += 1
                    elif toks[k].text == "}":
                        braces -= 1
                        if braces == 0:
                            break
                    k += 1
                if k < len(toks):
                    functions.append(
                        (t.text, t.line, tokens[code[decl_start]:code[k] + 1]))
                    i = k + 1
                    decl_start = None
                    continue
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth = max(0, depth - 1)
            if depth == 0:
                decl_start = None
        elif t.text == ";" and depth == 0:
            decl_start = None
        i += 1
    return functions


def classify_identifiers(tokens: list[Token]) -> dict[str, IdentifierRole]:
    """Assign each identifier a role, fixed at its first occurrence.

    An identifier is a function name iff the next surviving token after its
    first occurrence is ``(``; everything else is a variable.  Declarations and
    call sites are treated alike.
    """
    roles: dict[str, IdentifierRole] = {}
    for i, tok in enumerate(tokens):
        if tok.kind is not TokenKind.IDENTIFIER or tok.text in roles:
            continue
        role = IdentifierRole.VARIABLE
        for nxt in tokens[i + 1:]:
            if nxt.kind in _DROPPED:
                continue
            if nxt.text == "(":
                role = IdentifierRole.FUNCTION
            break
        roles[tok.text] = role
    return roles


def normalize(
    tokens: list[Token],
    roles: dict[str, IdentifierRole] | None = None,
    preserve: frozenset[str] | set[str] = frozenset(),
    source_id: str = "",
) -> NormalizedSample:
    """Rewrite a token stream into its canonical form.

    Literals map to NUMBER/STRING/CHAR, identifiers to VARk/FUNCk numbered by
    first occurrence (counters start at 0 and reset per sample), keywords and
    symbols pass through, comments and directives are dropped.  Identifiers
    listed in ``preserve`` and the literal placeholders NUMBER/STRING/CHAR are
    never rewritten; VARk/FUNCk names in the output are fixed points of a
    second pass because numbering follows first occurrence.
    """
    if roles is None:
        roles = classify_identifiers(tokens)
    out: list[str] = []
    names: dict[str, str] = {}
    id_var = 0
    id_func = 0
    for tok in tokens:
        if tok.kind in _DROPPED:
            continue
        if tok.kind is TokenKind.NUMBER:
            out.append("NUMBER")
        elif tok.kind is TokenKind.STRING:
            out.append("STRING")
        elif tok.kind is TokenKind.CHAR:
            out.append("CHAR")
        elif tok.kind is TokenKind.IDENTIFIER:
            text = tok.text
            if text in CANONICAL_LITERALS or text in preserve:
                out.append(text)
                continue
            if text not in names:
                if roles.get(text) is IdentifierRole.FUNCTION:
                    names[text] = f"FUNC{id_func}"
                    id_func += 1
                else:
                    names[text] = f"VAR{id_var}"
                    id_var += 1
            out.append(names[text])
        else:
            out.append(tok.text)
    return NormalizedSample(tokens=out, source_id=source_id)


def normalize_source(
    source: str,
    source_id: str = "",
    preserve: frozenset[str] | set[str] = frozenset(),
    issues: list[LexIssue] | None = None,
) -> NormalizedSample:
    """Lex, classify and normalize a source fragment in one step."""
    tokens = tokenize(source, issues=issues)
    return normalize(tokens, preserve=preserve, source_id=source_id)


def load_preserve_list(path) -> frozenset[str]:
    """Read an identifier whitelist, one name per line; '#' lines are comments."""
    names = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            name = line.strip()
            if name and not name.startswith("#"):
                names.add(name)
    return frozenset(names)
