import re

import pytest
from hypothesis import given, settings, strategies as st

from vulncascade.normalizer import (
    CANONICAL_LITERALS,
    KEYWORDS,
    IdentifierRole,
    LexIssue,
    Token,
    TokenKind,
    classify_identifiers,
    load_preserve_list,
    normalize,
    normalize_source,
    split_functions,
    tokenize,
)

from c_snippets import SNIPPETS
from conftest import growth_ratio


def hostile_source(units):
    """units functions, each with its own names, a directive, a comment,
    nested parens and an escaped string; then a comment that never closes."""
    body = "".join(
        f"#define M{i} ({i} + 1)\n"
        f"static int f{i}(int a{i}, char *s{i}) {{ /* c{i} */ "
        f'char *t = "x\\"{i}"; return g{i}((a{i} + (1)), s{i}[0]); // x\n}}\n'
        for i in range(units))
    return body + "/* never closed " + "x" * units


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)]


norm = normalize_source


class TestTokenize:
    def test_worked_example_tokens(self):
        toks = tokenize("int add(int a, int b){return a+b;}")
        assert [t.text for t in toks] == [
            "int", "add", "(", "int", "a", ",", "int", "b", ")", "{",
            "return", "a", "+", "b", ";", "}",
        ]
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[1].kind is TokenKind.IDENTIFIER

    def test_token_fields_are_fixed_and_immutable(self):
        tok = tokenize("x")[0]
        assert Token._fields == ("kind", "text", "line", "column")
        assert tok == Token(TokenKind.IDENTIFIER, "x", 1, 1)
        with pytest.raises(AttributeError):
            tok.text = "y"

    def test_keywords_recognized(self):
        for kw in ("while", "sizeof", "constexpr", "_Bool"):
            assert kinds(kw) == [(TokenKind.KEYWORD, kw)]

    def test_number_shapes(self):
        for lit in ("0", "42", "0x1F", "077", "1.5", ".5", "1e10", "1.5e-3f",
                    "0x1p-3", "10ul", "3.f"):
            assert kinds(lit) == [(TokenKind.NUMBER, lit)], lit

    def test_exponent_sign_absorbed(self):
        # the '-' belongs to the number, not to the operator stream
        assert kinds("1e-5+x") == [
            (TokenKind.NUMBER, "1e-5"),
            (TokenKind.OPERATOR, "+"),
            (TokenKind.IDENTIFIER, "x"),
        ]

    def test_string_and_char(self):
        assert kinds('"hi there"') == [(TokenKind.STRING, '"hi there"')]
        assert kinds("'x'") == [(TokenKind.CHAR, "'x'")]
        assert kinds(r'"a\"b"') == [(TokenKind.STRING, r'"a\"b"')]
        assert kinds(r"'\n'") == [(TokenKind.CHAR, r"'\n'")]

    def test_prefixed_strings(self):
        assert kinds('L"wide"') == [(TokenKind.STRING, 'L"wide"')]
        assert kinds('u8"x"') == [(TokenKind.STRING, 'u8"x"')]
        # not a prefix when detached from the quote
        assert kinds('L "wide"') == [
            (TokenKind.IDENTIFIER, "L"),
            (TokenKind.STRING, '"wide"'),
        ]

    def test_comments(self):
        assert kinds("a /* mid */ b") == [
            (TokenKind.IDENTIFIER, "a"),
            (TokenKind.COMMENT, "/* mid */"),
            (TokenKind.IDENTIFIER, "b"),
        ]
        assert kinds("x // tail\ny")[1][0] is TokenKind.COMMENT

    def test_directive_to_end_of_line(self):
        toks = tokenize("#include <stdio.h>\nint x;")
        assert toks[0].kind is TokenKind.PREPROCESSOR
        assert toks[0].text == "#include <stdio.h>"
        assert toks[1].text == "int"

    def test_directive_continuation_folded(self):
        toks = tokenize("#define PAIR(a, b) \\\n    ((a) + (b))\nint y;")
        assert toks[0].kind is TokenKind.PREPROCESSOR
        assert "\n" not in toks[0].text
        assert toks[1].text == "int"

    def test_maximal_munch(self):
        assert [t.text for t in tokenize("a+++++b")] == ["a", "++", "++", "+", "b"]
        assert [t.text for t in tokenize("x<<=2")] == ["x", "<<=", "2"]
        assert [t.text for t in tokenize("p->*q")] == ["p", "->*", "q"]
        assert [t.text for t in tokenize("a::b")] == ["a", "::", "b"]

    def test_ellipsis_is_punctuation(self):
        toks = tokenize("f(int, ...)")
        dots = [t for t in toks if t.text == "..."]
        assert len(dots) == 1 and dots[0].kind is TokenKind.PUNCTUATOR

    def test_stray_characters_survive(self):
        assert kinds("@") == [(TokenKind.PUNCTUATOR, "@")]
        assert kinds("$x")[0] == (TokenKind.PUNCTUATOR, "$")

    def test_positions(self):
        toks = tokenize("int a;\n  b = 1;")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (1, 5)
        b = next(t for t in toks if t.text == "b")
        assert (b.line, b.column) == (2, 3)

    def test_unterminated_string_recovers(self):
        issues: list[LexIssue] = []
        toks = tokenize('x = "oops\ny = 1;', issues=issues)
        assert any(t.kind is TokenKind.STRING for t in toks)
        assert any(t.text == "y" for t in toks)
        assert [i.kind for i in issues] == ["unterminated_string"]

    def test_unterminated_char_recovers(self):
        issues: list[LexIssue] = []
        tokenize("c = 'a\nd = 2;", issues=issues)
        assert [i.kind for i in issues] == ["unterminated_char"]

    def test_unterminated_comment_recovers(self):
        issues: list[LexIssue] = []
        toks = tokenize("a /* never closed", issues=issues)
        assert toks[-1].kind is TokenKind.COMMENT
        assert [i.kind for i in issues] == ["unterminated_comment"]

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_prefix_letter_at_eof(self):
        # 'u' alone must lex as an identifier, not reach for a quote
        assert kinds("u") == [(TokenKind.IDENTIFIER, "u")]
        assert kinds("u8") == [(TokenKind.IDENTIFIER, "u8")]

    def test_dangling_exponent_at_eof(self):
        assert kinds("1e") == [(TokenKind.NUMBER, "1e")]

    def test_non_decimal_numerics_start_identifiers(self):
        # numbers start at a decimal digit (Unicode Nd); other numeric
        # characters (No, Nl) lex like letters, as they already did inside
        # identifiers
        for ch in ("\u00b2", "\u00bd", "\u216b"):  # superscript 2, 1/2, XII
            assert kinds(ch) == [(TokenKind.IDENTIFIER, ch)], ch
            assert kinds("x" + ch) == [(TokenKind.IDENTIFIER, "x" + ch)], ch
            assert kinds("1" + ch) == [(TokenKind.NUMBER, "1" + ch)], ch
        arabic_three = "\u0663"
        assert kinds(arabic_three) == [(TokenKind.NUMBER, arabic_three)]

    def test_backslash_at_eof_in_unterminated_string(self):
        issues: list[LexIssue] = []
        assert [(t.kind, t.text) for t in tokenize('s = "ab\\', issues)][-1] \
            == (TokenKind.STRING, '"ab\\"')
        assert issues == [LexIssue("unterminated_string", 1, 5)]

    def test_crlf_directive_continuation_folded(self):
        toks = tokenize("#define X 1 \\\r\n + 2\r\nint y;")
        assert toks[0].text == "#define X 1   + 2"
        assert (toks[1].text, toks[1].line, toks[1].column) == ("int", 3, 1)

    def test_star_slash_overlap_is_unterminated(self):
        # the '*' that opens a comment cannot also close it
        issues: list[LexIssue] = []
        assert kinds("/*/ x") == [(TokenKind.COMMENT, "/*/ x*/")]
        tokenize("/*/ x", issues)
        assert issues == [LexIssue("unterminated_comment", 1, 1)]

    def test_prefix_spelling_is_exact(self):
        assert kinds("u8'x'") == [(TokenKind.CHAR, "u8'x'")]
        # prefixes are case-sensitive: U8 is an identifier, then a string
        assert kinds('U8"x"') == [(TokenKind.IDENTIFIER, "U8"),
                                  (TokenKind.STRING, '"x"')]

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abxyzLuU_019.e+-*/%&|^~!<>=?:()[]{};,@$ \t\r\n"
                            "\f\v\u00e9\u00b2\u00a0", max_size=60)
           .map(lambda s: re.sub(r"/(?=[/*])", "/ ", s)))
    def test_tokens_cover_every_non_blank_character(self, source):
        # without quotes, backslashes, directives or comments, every token
        # is a verbatim piece of the source and nothing else is skipped
        joined = "".join(t.text for t in tokenize(source))
        assert joined == re.sub(r"[ \t\r\n\f\v]", "", source)

    def test_linear_time(self):
        # 4x the input: about 4x the time; quadratic work would read 16
        assert growth_ratio(tokenize, hostile_source(500),
                            hostile_source(2000)) < 8.0


class TestClassify:
    def test_call_means_function(self):
        roles = classify_identifiers(tokenize("foo(1); int bar;"))
        assert roles["foo"] is IdentifierRole.FUNCTION
        assert roles["bar"] is IdentifierRole.VARIABLE

    def test_role_fixed_at_first_occurrence(self):
        # first sight of x is not followed by '(' so x stays a variable even
        # though it is later called through a pointer
        roles = classify_identifiers(tokenize("int x; x();"))
        assert roles["x"] is IdentifierRole.VARIABLE

    def test_lookahead_skips_dropped_tokens(self):
        roles = classify_identifiers(tokenize("f /* c */ (1);"))
        assert roles["f"] is IdentifierRole.FUNCTION
        roles = classify_identifiers(tokenize("g\n#define X 1\n(2);"))
        assert roles["g"] is IdentifierRole.FUNCTION

    def test_identifier_at_end(self):
        roles = classify_identifiers(tokenize("return x"))
        assert roles["x"] is IdentifierRole.VARIABLE


class TestNormalize:
    def test_linear_time(self):
        # every identifier is new: 4x the tokens, about 4x the time
        small, large = tokenize(hostile_source(500)), tokenize(hostile_source(2000))
        assert growth_ratio(normalize, small, large) < 8.0

    def test_worked_example(self):
        assert norm("int add(int a, int b){return a+b;}") == [
            "int", "FUNC0", "(", "int", "VAR0", ",", "int", "VAR1", ")", "{",
            "return", "VAR0", "+", "VAR1", ";", "}",
        ]

    def test_counters_start_at_zero_per_kind(self):
        out = norm("f(g(a), b);")
        assert out == ["FUNC0", "(", "FUNC1", "(", "VAR0", ")", ",", "VAR1",
                       ")", ";"]

    def test_literals_replaced(self):
        assert norm('x = 17; s = "hi"; c = \'q\'; y = 2.5e3;') == [
            "VAR0", "=", "NUMBER", ";", "VAR1", "=", "STRING", ";",
            "VAR2", "=", "CHAR", ";", "VAR3", "=", "NUMBER", ";",
        ]

    def test_comments_and_directives_dropped(self):
        out = norm("#include <x.h>\nint a; // note\n/* block */ a++;")
        assert out == ["int", "VAR0", ";", "VAR0", "++", ";"]

    def test_same_name_same_placeholder(self):
        out = norm("int n; n = n + n;")
        assert out.count("VAR0") == 4

    def test_keywords_never_renamed(self):
        out = norm("while (x) if (y) break;")
        assert out[0] == "while" and "if" in out and "break" in out

    def test_preserve_list_respected(self):
        out = norm("memcpy(dst, src, n);", preserve=frozenset({"memcpy"}))
        assert out[0] == "memcpy"
        assert out[2] == "VAR0"

    def test_canonical_literal_texts_reserved(self):
        # an identifier already spelled NUMBER must not become VARk, or a
        # second normalization pass would disagree with the first
        out = norm("int NUMBER; NUMBER = 1;")
        assert out == ["int", "NUMBER", ";", "NUMBER", "=", "NUMBER", ";"]

    def test_counters_reset_between_samples(self):
        assert norm("int q;") == ["int", "VAR0"] + [";"]
        assert norm("int z;") == ["int", "VAR0"] + [";"]

    def test_unicode_identifier(self):
        out = norm("int área; área = 1;")
        assert out == ["int", "VAR0", ";", "VAR0", "=", "NUMBER", ";"]


def rename_identifiers(source: str, mapping: dict[str, str]) -> str:
    if not mapping:
        return source
    pattern = re.compile(
        r"\b(" + "|".join(re.escape(k) for k in mapping) + r")\b")
    return pattern.sub(lambda m: mapping[m.group(1)], source)


def snippet_identifiers(source: str) -> list[str]:
    seen = []
    for tok in tokenize(source):
        if tok.kind is TokenKind.IDENTIFIER and tok.text not in seen:
            seen.append(tok.text)
    return seen


class TestRenamingInvariance:
    @pytest.mark.parametrize("idx", range(len(SNIPPETS)))
    def test_alpha_renaming_invariance(self, idx):
        source = SNIPPETS[idx]
        names = snippet_identifiers(source)
        mapping = {n: f"{n}_r9x" for n in names}
        renamed = rename_identifiers(source, mapping)
        assert norm(renamed) == norm(source)

    @pytest.mark.parametrize("idx", range(len(SNIPPETS)))
    def test_closure_on_snippets(self, idx):
        once = norm(SNIPPETS[idx])
        again = norm(" ".join(once))
        assert again == once

    @pytest.mark.parametrize("idx", range(len(SNIPPETS)))
    def test_no_raw_identifiers_or_literals_left(self, idx):
        allowed = KEYWORDS | CANONICAL_LITERALS
        for tok in norm(SNIPPETS[idx]):
            if tok[0].isalpha() or tok[0] == "_":
                assert (tok in allowed
                        or re.fullmatch(r"(VAR|FUNC)\d+", tok)), tok


ident = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS)

fragment = st.lists(
    st.one_of(
        ident,
        st.sampled_from(["int", "if", "while", "return", "char", "else"]),
        st.sampled_from(["(", ")", "{", "}", ";", ",", "+", "-", "*", "=",
                         "<", ">", "==", "&&", "->", "++"]),
        st.integers(0, 999).map(str),
        st.text(alphabet="abc xyz09_", max_size=6).map(
            lambda s: '"' + s + '"'),
    ),
    min_size=1, max_size=40,
)


class TestNormalizeProperties:
    @settings(max_examples=150, deadline=None)
    @given(fragment)
    def test_closure_property(self, tokens):
        source = " ".join(tokens)
        once = norm(source)
        assert norm(" ".join(once)) == once

    @settings(max_examples=150, deadline=None)
    @given(fragment, st.randoms(use_true_random=False))
    def test_renaming_property(self, tokens, rnd):
        source = " ".join(tokens)
        names = snippet_identifiers(source)
        # uppercase suffixes cannot collide with the lowercase-only
        # identifiers the strategy generates, so the rename is a bijection
        suffixes = [f"_Q{i}" for i in range(len(names))]
        rnd.shuffle(suffixes)
        mapping = {n: n + s for n, s in zip(names, suffixes)}
        assert norm(rename_identifiers(source, mapping)) == norm(source)

    @settings(max_examples=150, deadline=None)
    @given(fragment)
    def test_output_never_contains_raw_literals(self, tokens):
        out = norm(" ".join(tokens))
        for tok in out:
            assert not tok[0].isdigit()
            assert not tok.startswith('"')
            assert not tok.startswith("'")


def test_load_preserve_list(tmp_path):
    path = tmp_path / "keep.txt"
    path.write_text("# libc names\nmemcpy\nstrlen\n\nprintf\n")
    assert load_preserve_list(path) == frozenset({"memcpy", "strlen", "printf"})


def test_function_slices_normalize_like_their_source_text():
    # scan normalizes each function from its slice of the file's tokens; the
    # result must equal lexing the function's own source text again
    checked = 0
    for source in SNIPPETS:
        starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]

        def offset(tok):
            return starts[tok.line - 1] + tok.column - 1

        for _, _, part in split_functions(tokenize(source)):
            text = source[offset(part[0]):offset(part[-1]) + len(part[-1].text)]
            assert normalize(part) == normalize_source(text), text
            checked += 1
    assert checked >= len(SNIPPETS) // 2
