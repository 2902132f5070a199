#!/usr/bin/env python3
"""orchestra-lint: project-invariant static analysis.

Checks the invariants that no compiler enforces — deterministic simulation,
single-codec record handling, the async RPC lifecycle rules, and include
layering — and rejects violating code at CI time (`ci/check.sh lint`).

Rule catalog, rationale, and escape hatches: docs/STATIC_ANALYSIS.md.

Usage:
  tools/lint/orchestra_lint.py              # lint <repo>/src
  tools/lint/orchestra_lint.py --root DIR   # lint DIR/src (fixture corpora)
  tools/lint/orchestra_lint.py --selftest   # run the fixture corpus
  tools/lint/orchestra_lint.py --list-rules

Escape hatch: a violating line is suppressed by an annotation on the same
line or the line directly above it, with a mandatory reason:

    // lint:allow(<rule-id>): <why this site is safe>

Exit status: 0 clean, 1 violations, 2 usage/internal error.
"""

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

DOC = "docs/STATIC_ANALYSIS.md"

# ---------------------------------------------------------------------------
# Include layering (hygiene-include-layering)
#
# Mirrors the CMake link graph (one static library per src/ directory,
# linked bottom-up). A layer may include its own headers and those of the
# layers it (transitively) links against; src/common sits at the bottom and
# may not include upward at all.

_LAYER_DEPS = {
    "common": [],
    "hash": ["common"],
    "sim": ["common"],
    "wal": ["common"],
    "localstore": ["common", "wal"],
    "net": ["sim", "hash"],
    "overlay": ["net"],
    "storage": ["localstore", "overlay"],
    "query": ["storage"],
    "optimizer": ["query"],
    "sql": ["optimizer"],
    "client": ["query"],
    "deploy": ["client"],
    "workload": ["deploy", "sql"],
    "cdss": ["deploy", "sql"],
}


def _closure(layer):
    seen = set()
    stack = [layer]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(_LAYER_DEPS[cur])
    return seen


ALLOWED_INCLUDES = {layer: _closure(layer) for layer in _LAYER_DEPS}

# ---------------------------------------------------------------------------
# Rules
#
# A rule is (id, scope predicate over repo-relative paths, checker). Simple
# rules are one regex over comment-stripped lines; structural rules
# (unordered-iter, layering) get their own checkers.


@dataclass
class Finding:
    path: str  # repo-relative
    line: int  # 1-based
    rule: str
    message: str

    def render(self):
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message} "
                f"— {DOC}#{self.rule}")


@dataclass
class SourceFile:
    path: str       # repo-relative, forward slashes
    raw_lines: list
    code_lines: list = field(default_factory=list)  # comments stripped

    @property
    def layer(self):
        parts = self.path.split("/")
        return parts[1] if len(parts) > 2 and parts[0] == "src" else None


def strip_comments(text):
    """Remove //-comments and /* */ blocks, preserving line structure and
    string literals (key codec rules match string/char literals)."""
    out = []
    i, n = 0, len(text)
    in_block = False
    in_str = None  # quote char when inside a literal
    while i < n:
        c = text[i]
        if in_block:
            if c == "\n":
                out.append(c)
            if text.startswith("*/", i):
                in_block = False
                i += 2
                continue
            i += 1
            continue
        if in_str:
            out.append(c)
            if c == "\\" and i + 1 < n:
                out.append(text[i + 1])
                i += 2
                continue
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
            i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            in_block = True
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


_ALLOW_RE = re.compile(r"//\s*lint:allow\(([\w,\s-]+)\)\s*:\s*(\S.*)?$")


def allowed(sf, lineno, rule):
    """True if raw line `lineno` (1-based) or the comment block directly
    above it carries a lint:allow for `rule` with a non-empty reason. The
    reason may wrap across further comment lines."""
    candidates = [lineno]
    ln = lineno - 1
    while 1 <= ln <= len(sf.raw_lines) and \
            sf.raw_lines[ln - 1].strip().startswith("//"):
        candidates.append(ln)
        ln -= 1
    for ln in candidates:
        if 1 <= ln <= len(sf.raw_lines):
            m = _ALLOW_RE.search(sf.raw_lines[ln - 1])
            if m and rule in [r.strip() for r in m.group(1).split(",")]:
                if not (m.group(2) or "").strip():
                    # An allow without a reason is itself a violation; let the
                    # finding stand so the author writes the reason down.
                    return False
                return True
    return False


def regex_rule(rule, pattern, message, scope=None, exclude=None):
    rx = re.compile(pattern)

    def check(sf, findings):
        if scope and not any(sf.path.startswith(p) for p in scope):
            return
        if exclude and any(sf.path.startswith(p) for p in exclude):
            return
        for idx, line in enumerate(sf.code_lines, start=1):
            if rx.search(line) and not allowed(sf, idx, rule):
                findings.append(Finding(sf.path, idx, rule, message))

    return rule, check


# --- Determinism -----------------------------------------------------------

RULES = []

RULES.append(regex_rule(
    "det-wallclock",
    r"\b(gettimeofday|clock_gettime|ftime|localtime(_r)?|gmtime(_r)?"
    r"|strftime|mktime)\s*\("
    r"|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"
    r"|std::chrono::(system_clock|steady_clock|high_resolution_clock)\b"
    r"|[^\w.]clock\s*\(\s*\)",
    "wall-clock read: simulated time comes from sim::Simulator::now(); real "
    "clocks break same-seed trace reproducibility"))

RULES.append(regex_rule(
    "det-rand",
    r"\bstd::rand\b|\bsrand\s*\(|[^\w.]rand\s*\(\s*\)"
    r"|\brandom_device\b|\bstd::mt19937(_64)?\b|\bdefault_random_engine\b",
    "non-deterministic or platform-varying randomness: all randomness flows "
    "through the seeded orchestra::Rng (src/common/rng.h)"))

RULES.append(regex_rule(
    "det-pointer-order",
    r"\bstd::(map|set|multimap|multiset)\s*<[^,>]*\*"
    r"|reinterpret_cast<\s*(std::)?u?intptr_t\b",
    "pointer-valued ordering: address order varies run to run (ASLR) and "
    "must never feed wire frames or the trace digest"))

# --- Codec unity -----------------------------------------------------------

_CODEC_SCOPE = ["src/storage/", "src/client/", "src/query/", "src/deploy/",
                "src/cdss/", "src/workload/"]
_CODEC_HOME = ["src/storage/keys."]

RULES.append(regex_rule(
    "codec-rawkey",
    r"\bkey\s*\[\s*0\s*\]|\bkey\.substr\s*\(|case\s*'[DPICME]'"
    r"|SeekPrefix\s*\(\s*\"[DPICME]\"\s*\)",
    "ad-hoc stored-key bytes: parse with keys::Parse (src/storage/keys.h) "
    "and dispatch on the parsed tag with the keys::k*Tag constants",
    scope=_CODEC_SCOPE, exclude=_CODEC_HOME))

_FRAME_HOME = ["src/storage/service.h", "src/storage/service.cc",
               "src/storage/publisher.cc"]

RULES.append(regex_rule(
    "codec-frame",
    r"\bkPutTuples\b",
    "the kPutTuples nested frame has one encoder (Publisher::IssueWrites) "
    "and one decoder (StorageService, case kPutTuples); building or parsing "
    "it elsewhere forks the wire format",
    scope=["src/"], exclude=_FRAME_HOME))

# --- RPC lifecycle ---------------------------------------------------------

RULES.append(regex_rule(
    "rpc-selfcapture",
    r"shared_ptr\s*<\s*std::function|make_shared\s*<\s*std::function",
    "shared_ptr<std::function> retry-cycle pattern: closures that capture a "
    "shared_ptr to themselves leak (the PR-1 callback-leak class); put "
    "per-call state in RpcClient's pending-call table instead"))

RULES.append(regex_rule(
    "rpc-raw-send",
    r"network\s*\(\s*\)\s*->\s*Send\s*\(|network_\s*->\s*Send\s*\(",
    "raw Network::Send bypasses the RPC lifecycle layer: requests go "
    "through RpcClient::Call (pending-call table, deadline, orphan reap), "
    "replies through RpcClient::SendReply",
    scope=["src/"], exclude=["src/net/"]))

# --- Hygiene ---------------------------------------------------------------

RULES.append(regex_rule(
    "wal-raw-io",
    r"\bf?open(at|dir)?\s*\(|\bfreopen\s*\(|\bcreat\s*\("
    r"|\bstd::(basic_)?[io]?fstream\b|\bstd::filesystem\b",
    "raw file I/O outside src/wal/: durability goes through wal::Backend so "
    "the simulator stays deterministic (MemoryBackend) and crash/torn-tail "
    "semantics are modeled in exactly one place",
    scope=["src/"], exclude=["src/wal/"]))

RULES.append(regex_rule(
    "hygiene-banned-fn",
    r"\b(strcpy|strcat|sprintf|vsprintf|gets|tmpnam|alloca|atoi|atol|atof)"
    r"\s*\(",
    "banned function: unbounded/UB-prone C API; use std::string, snprintf, "
    "or common/serial.h"))


# --- Structural rules ------------------------------------------------------

_UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s+(\w+)\s*[;{=]")
_RANGE_FOR = re.compile(r"for\s*\(\s*[^;)]*?:\s*([\w.\->]+?)\s*\)")


def _sibling_paths(path):
    """The file itself plus its header/source sibling (same basename)."""
    base, ext = os.path.splitext(path)
    sibs = [path]
    for other in (".h", ".cc"):
        if other != ext:
            sibs.append(base + other)
    return sibs


def check_unordered_iter(sf, findings, file_map):
    """det-unordered-iter: range-for over a container declared unordered in
    this file or its sibling. Iteration order is a libstdc++ implementation
    artifact; it may not feed wire frames or the trace digest, and every
    allowed site must say why it is order-independent."""
    rule = "det-unordered-iter"
    names = set()
    for sib in _sibling_paths(sf.path):
        other = file_map.get(sib)
        if other:
            for line in other.code_lines:
                for m in _UNORDERED_DECL.finditer(line):
                    names.add(m.group(1))
    if not names:
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        for m in _RANGE_FOR.finditer(line):
            expr = m.group(1)
            leaf = re.split(r"[.\->]", expr)[-1] or expr
            if leaf in names and not allowed(sf, idx, rule):
                findings.append(Finding(
                    sf.path, idx, rule,
                    f"iteration over unordered container '{leaf}': order is "
                    "an implementation artifact and may not feed wire "
                    "frames or the trace digest"))


_INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')


def check_include_layering(sf, findings):
    rule = "hygiene-include-layering"
    layer = sf.layer
    if layer is None or layer not in ALLOWED_INCLUDES:
        return
    for idx, line in enumerate(sf.code_lines, start=1):
        m = _INCLUDE_RE.search(line)
        if not m:
            continue
        target = m.group(1)
        parts = target.split("/")
        if len(parts) < 2:
            continue  # repo-root include (bench_util.h style), not layered
        tlayer = parts[0]
        if tlayer not in _LAYER_DEPS:
            continue  # not a src/ layer header
        if tlayer not in ALLOWED_INCLUDES[layer] and not allowed(sf, idx, rule):
            findings.append(Finding(
                sf.path, idx, rule,
                f"src/{layer} may not include src/{tlayer} (link graph: "
                f"{layer} -> {', '.join(sorted(_LAYER_DEPS[layer])) or 'nothing'}); "
                "inverting a layer edge here would not link"))


RULE_IDS = [r for r, _ in RULES] + ["det-unordered-iter",
                                    "hygiene-include-layering"]


# ---------------------------------------------------------------------------
# Driver


def load_tree(root):
    files = {}
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if not name.endswith((".h", ".cc")):
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, encoding="utf-8") as f:
                text = f.read()
            sf = SourceFile(rel, text.splitlines())
            sf.code_lines = strip_comments(text).splitlines()
            files[rel] = sf
    return files


def lint_root(root):
    files = load_tree(root)
    findings = []
    for sf in files.values():
        for _, check in RULES:
            check(sf, findings)
        check_unordered_iter(sf, findings, files)
        check_include_layering(sf, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def run_selftest(repo_root):
    """Fixture corpus: tools/lint/fixtures/<rule>/{flag,pass}/src/... — the
    flag tree must produce at least one finding of exactly that rule (and
    nothing else), the pass tree none at all."""
    fixtures = os.path.join(repo_root, "tools", "lint", "fixtures")
    if not os.path.isdir(fixtures):
        print(f"selftest: no fixture corpus at {fixtures}", file=sys.stderr)
        return 2
    failures = []
    rules_seen = set()
    for rule in sorted(os.listdir(fixtures)):
        rule_dir = os.path.join(fixtures, rule)
        if not os.path.isdir(rule_dir):
            continue
        if rule not in RULE_IDS:
            failures.append(f"{rule}: fixture directory for unknown rule")
            continue
        rules_seen.add(rule)
        for kind in ("flag", "pass"):
            sub = os.path.join(rule_dir, kind)
            if not os.path.isdir(sub):
                failures.append(f"{rule}/{kind}: missing fixture tree")
                continue
            found = lint_root(sub)
            if kind == "flag":
                if not any(f.rule == rule for f in found):
                    failures.append(f"{rule}/flag: rule did not fire")
                stray = [f for f in found if f.rule != rule]
                for f in stray:
                    failures.append(
                        f"{rule}/flag: stray finding {f.rule} at "
                        f"{f.path}:{f.line}")
            else:
                for f in found:
                    failures.append(
                        f"{rule}/pass: unexpected finding "
                        f"[{f.rule}] at {f.path}:{f.line}")
    for rule in RULE_IDS:
        if rule not in rules_seen:
            failures.append(f"{rule}: no fixture directory — every rule "
                            "needs a must-flag and a must-pass case")
    if failures:
        print("lint selftest FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"lint selftest OK: {len(rules_seen)} rules, each with flag + "
          "pass fixtures")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="tree to lint (default: the repo containing this "
                         "script); scans <root>/src")
    ap.add_argument("--selftest", action="store_true",
                    help="run the fixture corpus instead of linting")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    if args.list_rules:
        for rule in RULE_IDS:
            print(rule)
        return 0
    if args.selftest:
        return run_selftest(repo_root)

    root = args.root or repo_root
    findings = lint_root(root)
    for f in findings:
        print(f.render())
    if findings:
        print(f"\norchestra-lint: {len(findings)} violation(s). Each rule's "
              f"invariant and escape hatch: {DOC}", file=sys.stderr)
        return 1
    print("orchestra-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
