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

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import SpecCorruptError

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


class Token(NamedTuple):
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


# One alternative per token shape, tried in this order at each position.
# Words are Unicode identifiers (str.isalnum or "_", not starting with a
# decimal digit); numbers follow the preprocessor "pp-number" rule: a digit, or
# a dot then a digit, then any run of word characters and dots, with e/E/p/P
# allowed to absorb a following sign.  That covers hex, octal, floats,
# exponents and suffixes in one shape.  Quoted literals may carry an
# L/u/U/u8 prefix and end at their closing quote, or unterminated at end of
# line or input; a backslash escapes any next character, newline included.
# Anything else (stray @, $, backticks...) is kept as a one-character
# punctuator, so no input character is silently lost.
_TOKEN_RE = re.compile(r"""
    (?P<space>[ \t\r\n\f\v]+)
  | (?P<comment>/\*.*?\*/|//[^\n]*)
  | (?P<open_comment>/\*.*)
  | (?P<directive>\#(?:\\\r?\n|[^\n])*)
  | (?P<quoted>(?:u8|[LuU])?(?P<quote>["'])
        (?:(?!(?P=quote))[^\\\n]|\\.?)*(?P<close>(?P=quote))?)
  | (?P<word>[^\W\d]\w*)
  | (?P<number>\.?\d(?:[eEpP][+-]|[\w.])*)
  | (?P<ellipsis>\.\.\.)
  | (?P<operator><<=|>>=|->\*|->|\+\+|--|<<|>>|&&|\|\||::|\.\*
        |[-+*/%&|^<>=!]=|[-+*/%&|^~!<>=?:.])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)

_CONTINUATION_RE = re.compile(r"\\\r?\n")

_KINDS = {
    "comment": TokenKind.COMMENT,
    "number": TokenKind.NUMBER,
    "ellipsis": TokenKind.PUNCTUATOR,
    "operator": TokenKind.OPERATOR,
    "other": TokenKind.PUNCTUATOR,
}


def tokenize(source: str, issues: list[LexIssue] | None = None) -> list[Token]:
    """Lex a C/C++ fragment into tokens.

    Every non-whitespace character lands in exactly one token.  Comments and
    preprocessor directives are emitted as their own token kinds; directive
    continuations are folded to single spaces, so a directive's text never
    contains a newline.  Unterminated strings, character literals and block
    comments are closed at end of line / end of input and recorded in
    ``issues`` when a list is supplied; lexing always runs to completion.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        group, text, start = m.lastgroup, m.group(), m.start()
        tok_line, col = line, start - line_start + 1
        if "\n" in text:
            line += text.count("\n")
            line_start = start + text.rindex("\n") + 1
        if group == "space":
            continue
        if group == "word":
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        elif group == "quoted":
            quote = m.group("quote")
            kind = TokenKind.STRING if quote == '"' else TokenKind.CHAR
            if m.group("close") is None:
                issue = "unterminated_string" if quote == '"' else "unterminated_char"
                if issues is not None:
                    issues.append(LexIssue(issue, tok_line, col))
                text += quote
        elif group == "open_comment":
            if issues is not None:
                issues.append(LexIssue("unterminated_comment", tok_line, col))
            kind, text = TokenKind.COMMENT, text + "*/"
        elif group == "directive":
            kind = TokenKind.PREPROCESSOR
            text = _CONTINUATION_RE.sub(" ", text).rstrip()
        else:
            kind = _KINDS[group]
        tokens.append(Token(kind, text, tok_line, col))
    return tokens


# Token kinds that do not survive normalization.  Lookahead for function-name
# detection skips these, so classification agrees with the normalized stream.
_DROPPED = (TokenKind.COMMENT, TokenKind.PREPROCESSOR)


def _balancing(toks: list[Token], opener: str, closer: str) -> dict[int, int]:
    """Map the index of each opener to that of the closer balancing it,
    counting this bracket pair alone; unbalanced openers are left out."""
    match: dict[int, int] = {}
    open_at: list[int] = []
    for n, t in enumerate(toks):
        if t.text == opener:
            open_at.append(n)
        elif t.text == closer and open_at:
            match[open_at.pop()] = n
    return match


def split_functions(tokens: list[Token]) -> list[tuple[str, int, list[Token]]]:
    """Best-effort extraction of top-level function definitions.

    Returns (name, line, tokens) triples, where tokens is the definition's
    slice of the input, comments and directives inside it included; an
    empty list means the caller should fall back to the whole token list.
    A definition is a top-level identifier, then a balanced parameter list,
    then a balanced body; time is linear in the number of tokens.
    """
    # positions of the tokens that survive normalization; structure is
    # found on those alone
    code = [i for i, t in enumerate(tokens) if t.kind not in _DROPPED]
    toks = [tokens[i] for i in code]
    parens = _balancing(toks, "(", ")")
    braces = _balancing(toks, "{", "}")
    functions = []
    i, depth = 0, 0
    decl_start = None  # index in toks of the current declaration's first token
    while i < len(toks):
        t = toks[i]
        if depth == 0 and decl_start is None:
            decl_start = i
        if depth == 0 and t.kind is TokenKind.IDENTIFIER:
            j = parens.get(i + 1)
            k = None if j is None else braces.get(j + 1)
            if k is not None:
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
    code = [t for t in tokens if t.kind not in _DROPPED]
    roles: dict[str, IdentifierRole] = {}
    for tok, nxt in zip(code, code[1:] + [None]):
        if tok.kind is TokenKind.IDENTIFIER and tok.text not in roles:
            roles[tok.text] = (
                IdentifierRole.FUNCTION if nxt is not None and nxt.text == "("
                else IdentifierRole.VARIABLE)
    return roles


def normalize(
    tokens: list[Token], preserve: frozenset[str] | set[str] = frozenset()
) -> list[str]:
    """Rewrite a token stream into its canonical form.

    Literals map to NUMBER/STRING/CHAR, identifiers to VARk/FUNCk numbered by
    first occurrence (counters start at 0 and reset per sample), keywords and
    symbols pass through, comments and directives are dropped.  Identifiers
    listed in ``preserve`` and the literal placeholders NUMBER/STRING/CHAR are
    never rewritten; VARk/FUNCk names in the output are fixed points of a
    second pass because numbering follows first occurrence.
    """
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
    return out


def normalize_source(
    source: str,
    preserve: frozenset[str] | set[str] = frozenset(),
    issues: list[LexIssue] | None = None,
) -> list[str]:
    """Lex, classify and normalize a source fragment in one step."""
    return normalize(tokenize(source, issues=issues), preserve=preserve)


def undecoded_byte(line: str) -> str | None:
    """Why a line read with errors="surrogateescape" is not UTF-8, or None."""
    try:
        line.encode("utf-8")  # fails at the first escaped byte
    except UnicodeEncodeError as exc:
        return (f"byte 0x{ord(line[exc.start]) - 0xDC00:02x} at character "
                f"{exc.start + 1} is not UTF-8")
    return None


def load_preserve_list(path) -> frozenset[str]:
    """Read an identifier whitelist, one name per line; '#' lines are comments.
    A line that is not UTF-8 raises SpecCorruptError naming the file and line."""
    names = set()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if why := undecoded_byte(line):
                raise SpecCorruptError(f"{path}: line {line_no}: {why}")
            name = line.strip()
            if name and not name.startswith("#"):
                names.add(name)
    return frozenset(names)
