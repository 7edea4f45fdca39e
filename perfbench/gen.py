"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
bytes.  The seed chooses names, constants and the order of motifs and
samples; it never changes the *shape* of a workload (unit counts, class
counts, the token-length schedule, the statement sequence of long bodies), so
the work a run measures is the same for every seed and only the content
differs.

Token counts are taken with the benchmark's own C token regex, independent of
the program's lexer, so ``lex_passes_per_unit`` divides the program's work by
a count the program did not produce.
"""

from __future__ import annotations

import json
import math
import random
import re

VULN_MOTIFS = {
    "CWE-121": "void {fn}(char *{a}) {{ char {b}[{n}]; strcpy({b}, {a}); }}",
    "CWE-190": "int {fn}(int {a}) {{ int {b} = {a} * {big} * {big}; return {b}; }}",
    "CWE-476": "int {fn}(int *{a}) {{ if ({a} != 0) {{ }} return *{a}; }}",
    "CWE-416": "void {fn}(char *{a}) {{ free({a}); {a}[0] = {n}; }}",
    "CWE-78": ('void {fn}(char *{a}) {{ char {b}[64]; '
               'sprintf({b}, "%s", {a}); system({b}); }}'),
}
CWES = sorted(VULN_MOTIFS)

CLEAN_MOTIFS = (
    "int {fn}(int {a}, int {b}) {{ return {a} {op} {b}; }}",
    "int {fn}(int {a}) {{ int {b} = {a} {op} {n}; return {b}; }}",
    "int {fn}(int {a}) {{ if ({a} > {n}) {{ return {a}; }} return {n}; }}",
    ("int {fn}(int {a}) {{ int {b} = 0; for (int {i} = 0; {i} < {a}; {i}++) "
     "{{ {b} += {i}; }} return {b}; }}"),
    ("void {fn}(int *{a}, int {b}) {{ for (int {i} = 0; {i} < {b}; {i}++) "
     "{{ {a}[{i}] = {i}; }} }}"),
)

# Statements for long function bodies; {v} names are fresh, {u} names reuse
# an earlier variable, so bodies keep introducing distinct identifiers.
BODY_STATEMENTS = (
    "int {v} = {u} + {n};",
    "{u} = {u} * {n} - {v2};",
    "if ({u} > {n}) {{ {u} = {u} - {n}; }}",
    "for (int {v} = 0; {v} < {n}; {v}++) {{ {u} += {v}; }}",
    "{call}({u}, {n});",
    "char {v}[{n}]; memset({v}, 0, sizeof({v}));",
    'printf("{word} %d\\n", {u});',
    "/* {word} {word2}: {word3} */",
    "{u} = ({u} << 2) ^ 0x{hex};",
    "while ({u} > {n}) {{ {u} /= 2; }}",
)

WORDS = ("count total value index limit size step left right acc sum item "
         "width depth cursor offset mark probe slot head tail rank node edge "
         "page frame block chunk token state flag mode level score").split()

INCLUDES = ("stdio.h", "stdlib.h", "string.h", "stdint.h", "unistd.h")

_TOKEN_RE = re.compile(r"""
    /\*.*?\*/ | //[^\n]* | ^[ \t]*\#[^\n]*            # comments, directives
  | "(?:\\.|[^"\\\n])*" | '(?:\\.|[^'\\\n])*'       # string and char literals
  | 0[xX][0-9a-fA-F]+ | \d+(?:\.\d+)? | [A-Za-z_]\w*
  | <<= | >>= | \+\+ | -- | -> | <= | >= | == | != | && | \|\| | << | >>
  | [-+*/%&|^]= | [^\s]
""", re.VERBOSE | re.DOTALL | re.MULTILINE)


def count_tokens(source: str) -> int:
    """C token count, comments and directives counting one token each."""
    return len(_TOKEN_RE.findall(source))


class _Names:
    """Distinct identifiers within one unit."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            name = f"{self.rng.choice(WORDS)}_{self.rng.randrange(1000, 10000)}"
            if name not in self.used:
                self.used.add(name)
                return name


def _fill(template: str, rng: random.Random, fn: str) -> str:
    names = _Names(rng)
    return template.format(
        fn=fn, a=names.fresh(), b=names.fresh(), i=names.fresh(),
        n=rng.randrange(2, 64), big=rng.choice([65536, 1 << 30, 2147483647]),
        op=rng.choice(["+", "-", "*"]))


def _long_body(rng: random.Random, target_tokens: int, fn: str,
               motif: str | None) -> str:
    """One function of about target_tokens tokens with many identifiers."""
    names = _Names(rng)
    params = [names.fresh(), names.fresh()]
    live = list(params)
    lines = [f"int {fn}(int {params[0]}, int {params[1]}) {{"]
    if motif is not None:
        lines.append("  " + motif.split("{", 1)[1].rsplit("}", 1)[0].strip())
    tokens = count_tokens("\n".join(lines)) + 4
    calls = [names.fresh() for _ in range(6)]
    k = 0
    while tokens < target_tokens:
        # statements cycle in a fixed order, so the identifier count and the
        # token count of a body do not depend on the seed
        stmt = BODY_STATEMENTS[k % len(BODY_STATEMENTS)]
        fresh = names.fresh()
        text = stmt.format(
            v=fresh, v2=rng.choice(live), u=rng.choice(live),
            n=rng.randrange(100, 1000), call=calls[k % len(calls)],
            word=rng.choice(WORDS), word2=rng.choice(WORDS),
            word3=rng.choice(WORDS), hex=f"{rng.randrange(1 << 12, 1 << 16):x}")
        if "{v}" in stmt and "for" not in stmt:
            live.append(fresh)
        lines.append("  " + text)
        tokens += count_tokens(text)
        k += 1
    lines.append(f"  return {live[-1]};")
    lines.append("}")
    return "\n".join(lines)


def _header(rng: random.Random) -> str:
    picks = rng.sample(INCLUDES, 2)
    head = [f"#include <{name}>" for name in picks]
    head.append(f"/* {' '.join(rng.choice(WORDS) for _ in range(6))} */")
    return "\n".join(head)


# --- scan_functions ---------------------------------------------------------

SCAN_FILES = 20


def scan_files(seed: int) -> list[dict]:
    """C files of ten short functions each: the five demo motifs and the
    five clean ones, so no two units of a file normalize alike."""
    rng = random.Random(f"scan-{seed}")
    files = []
    for f in range(SCAN_FILES):
        kinds = [VULN_MOTIFS[c] for c in CWES] + list(CLEAN_MOTIFS)
        rng.shuffle(kinds)
        units = [_fill(t, rng, f"fn_{f}_{u}") for u, t in enumerate(kinds)]
        source = _header(rng) + "\n\n" + "\n\n".join(units) + "\n"
        files.append({"name": f"unit_{f:03d}.c", "source": source,
                      "units": len(units), "tokens": count_tokens(source)})
    return files


def scan_train_corpus(seed: int) -> list[dict]:
    """Small balanced corpus the scan models are briefly trained on."""
    rng = random.Random(f"scan-train-{seed}")
    records = []
    for k in range(8):
        for cwe in CWES:
            records.append({"code": _fill(VULN_MOTIFS[cwe], rng, f"v{k}"),
                            "vulnerable": 1, "cwe": cwe})
    for k in range(40):
        records.append({"code": _fill(rng.choice(CLEAN_MOTIFS), rng, f"c{k}"),
                        "vulnerable": 0})
    rng.shuffle(records)
    return records


# --- train_eval --------------------------------------------------------------

# Imbalanced on purpose so SMOTE synthesizes rows; every class keeps more
# than k=5 training rows so SMOTE interpolates instead of duplicating.
TRAIN_CWE_COUNTS = {"CWE-121": 26, "CWE-190": 20, "CWE-476": 16,
                    "CWE-416": 10, "CWE-78": 8}
TRAIN_CLEAN = 80
TRAIN_MIN_TOKENS = 120
TRAIN_MAX_TOKENS = 900


def length_schedule(n: int, lo: int, hi: int) -> list[int]:
    """n token targets spaced geometrically from lo to hi, fixed per run."""
    return [round(lo * math.exp(math.log(hi / lo) * i / (n - 1)))
            for i in range(n)]


def train_corpus(seed: int) -> list[dict]:
    """Imbalanced corpus, lengths 120..900 tokens so many rows fill the
    500-token stage-1 window."""
    rng = random.Random(f"train-{seed}")
    plan = [(cwe, n) for cwe, n in TRAIN_CWE_COUNTS.items()]
    plan.append((None, TRAIN_CLEAN))
    records = []
    for cwe, n in plan:
        targets = length_schedule(n, TRAIN_MIN_TOKENS, TRAIN_MAX_TOKENS)
        for k, target in enumerate(targets):
            motif = _fill(VULN_MOTIFS[cwe], rng, "unused") if cwe else None
            fn = f"{(cwe or 'clean').lower().replace('-', '')}_{k}"
            record = {"code": _long_body(rng, target, fn, motif),
                      "vulnerable": int(cwe is not None), "id": fn}
            if cwe:
                record["cwe"] = cwe
            records.append(record)
    rng.shuffle(records)
    return records


def write_jsonl(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
