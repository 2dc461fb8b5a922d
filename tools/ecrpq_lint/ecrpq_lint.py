#!/usr/bin/env python3
"""ecrpq_lint: project-rule lint pass for invariants clang-tidy can't express.

Rules (catalog + rationale in docs/STATIC_ANALYSIS.md):

  ecrpq-naked-mutex
      No naked std::mutex / std::lock_guard / std::unique_lock /
      std::condition_variable (etc.) outside src/common/annotations.h.
      All locking goes through the annotated Mutex/MutexLock/CondVar
      wrappers so clang's -Wthread-safety capability analysis sees every
      locking site.

  ecrpq-budget-poll
      Every engine search-loop translation unit must poll
      Session::CheckBudget — an engine that never polls cannot honor
      kResourceExhausted budgets and hangs the admission-control story.

  ecrpq-unordered-emission
      No iteration over an unordered container feeding answer emission:
      hash iteration order is nondeterministic across libstdc++ versions,
      seeds and pool sizes, and emitted answer order is part of the
      engines' determinism contract (byte-identical at every pool size).

  ecrpq-dcheck-side-effects
      No ECRPQ_DCHECK whose condition has side effects (++/--/assignment/
      mutating container calls): dchecks compile out of plain release
      builds, so a side effect inside one changes behavior between build
      modes.

  ecrpq-raw-worklist
      No direct std::deque / std::queue worklists in the evaluation hot
      paths (src/eval/, src/graphdb/): index-space fan-out goes through the
      work-stealing runtime (WorkStealingDeque / FrontierScheduler in
      common/worklist.h), which owns the chunking, stealing and steal
      metrics. Algorithmic queues whose *pop order* is the algorithm (e.g.
      the 0/1-BFS witness-path deque) stay — suppress with a justified
      NOLINT.

  ecrpq-raw-determinize
      No direct Determinize( calls in the evaluation hot paths (src/eval/,
      src/graphdb/): subset construction is exponential in the worst case
      and must go through AutomatonInterner::DeterminizeCached
      (automata/interner.h), which memoizes the DFA per (interned NFA,
      label universe). A deliberately-uncached determinization (e.g. a
      one-shot automaton that must not occupy cache budget) gets a
      justified NOLINT.

  ecrpq-raw-logging
      No fprintf(stderr, ...) / std::cerr in the service and evaluation
      layers (src/service/, src/eval/): diagnostics there carry a
      trace_id and must go through the structured event log
      (obs::EventLog, common/event_log.h) or the metrics vocabulary so
      they are machine-readable, rate-controllable and correlated with
      the request. Raw stderr writes are invisible to the slow-query log
      and interleave nondeterministically under concurrent sessions. A
      deliberate raw write (e.g. a last-resort path inside the fatal
      signal handler where no allocation is allowed) gets a justified
      NOLINT.

Sources come from the compile database (first-party TUs) plus first-party
headers. Findings print as `path:line: [rule] message`; exit 1 on findings.
Suppress a line with `NOLINT(ecrpq-<rule>)` or the following line with
`NOLINTNEXTLINE(ecrpq-<rule>)` — a justification comment is expected.

When clang-query is installed, the AST-level formulations of the same rules
(tools/ecrpq_lint/rules/*.cquery) also run over the compile database; the
portable matchers in this driver are the authoritative gate so the pass
works on toolchains without clang (repo degrade policy, cf. run_lint.sh).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

# Engine TUs that own a product-search / enumeration loop and therefore
# must poll the evaluation budget.
ENGINE_FILES = [
    "src/graphdb/tuple_search.cc",
    "src/graphdb/rpq_reach.cc",
    "src/graphdb/reach_memo.cc",
    "src/eval/generic_eval.cc",
    "src/eval/reduce_to_cq.cc",
    "src/cq/eval_backtrack.cc",
    "src/cq/eval_treedec.cc",
]

# The one file allowed to name the raw standard primitives.
NAKED_MUTEX_ALLOWLIST = ["src/common/annotations.h"]

# Directories whose TUs the raw-worklist rule applies to: the evaluation
# hot paths that must use the work-stealing runtime for fan-out.
RAW_WORKLIST_DIRS = ["src/eval/", "src/graphdb/"]

# Directories whose TUs the raw-logging rule applies to: the layers whose
# diagnostics carry a trace_id and must go through the structured event
# log instead of raw stderr.
RAW_LOGGING_DIRS = ["src/service/", "src/eval/"]

FIRST_PARTY_DIRS = ["src", "tools", "tests", "bench", "examples"]
EXCLUDE_DIR_PARTS = ["tests/lint_fixtures"]

NAKED_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)

UNORDERED_DECL_TMPL = (
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;]*?\b%s\b"
)

EMISSION_RE = re.compile(
    r"\bon_answer\b|\banswers\s*\.\s*(?:push_back|emplace_back|insert)\b|"
    r"\bresult\s*\.\s*answers\b|\bEmitAnswer\b"
)

DCHECK_CALL_RE = re.compile(r"\bECRPQ_DCHECK(?:_EQ|_NE|_LT|_LE|_GT|_GE|)?\s*\(")

MUTATING_CALL_RE = re.compile(
    r"(?:\.|->)\s*(?:insert|emplace|emplace_back|push_back|pop_back|"
    r"pop_front|push_front|erase|clear|resize|reset|release|swap|assign|"
    r"Add|Record|Cancel|Trip)\s*\("
)

# An assignment: '=' not part of ==, !=, <=, >=, <=> (compound assignments
# like += keep their '=' and are matched on purpose).
ASSIGN_RE = re.compile(r"(?<![=!<>])=(?!=)")
INCDEC_RE = re.compile(r"\+\+|--")

# \b keeps priority_queue out: '_' is a word character, so "queue" inside
# "priority_queue" has no boundary before it.
RAW_WORKLIST_RE = re.compile(r"\bstd\s*::\s*(deque|queue)\b")

# \b keeps DeterminizeCached( out: the leading boundary requires the match
# to start a fresh identifier, and "Determinize" inside "DeterminizeCached"
# is followed by 'C', not '('.
RAW_DETERMINIZE_RE = re.compile(r"\bDeterminize\s*\(")

# Matches both the qualified (std::fprintf) and unqualified spellings; the
# \b before fprintf holds after "::" because ':' is a non-word character.
# snprintf/fprintf-to-a-FILE* never match — only the stderr stream does.
RAW_LOGGING_RE = re.compile(
    r"\bfprintf\s*\(\s*stderr\b|\bstd\s*::\s*cerr\b")

RULES = [
    "ecrpq-naked-mutex",
    "ecrpq-budget-poll",
    "ecrpq-unordered-emission",
    "ecrpq-dcheck-side-effects",
    "ecrpq-raw-worklist",
    "ecrpq-raw-determinize",
    "ecrpq-raw-logging",
]


def strip_comments_and_strings(text):
    """Replaces comment/string-literal contents with spaces, preserving
    newlines (so line numbers survive)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def suppressed_lines(raw_lines, rule):
    """Line numbers (1-based) suppressed for `rule` via NOLINT markers."""
    supp = set()
    for ln, line in enumerate(raw_lines, 1):
        if "NOLINTNEXTLINE(" in line and rule in line:
            supp.add(ln + 1)
        if "NOLINT(" in line and rule in line:
            supp.add(ln)
    return supp


def balanced_extent(text, open_pos):
    """Given text[open_pos] in '([{', returns the index one past the
    matching closer, or len(text) when unbalanced."""
    pairs = {"(": ")", "[": "]", "{": "}"}
    opener = text[open_pos]
    closer = pairs[opener]
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def check_naked_mutex(relpath, raw_lines, stripped):
    if any(relpath.endswith(allow) or relpath == allow
           for allow in NAKED_MUTEX_ALLOWLIST):
        return []
    findings = []
    supp = suppressed_lines(raw_lines, "ecrpq-naked-mutex")
    for ln, line in enumerate(stripped.splitlines(), 1):
        m = NAKED_MUTEX_RE.search(line)
        if m and ln not in supp:
            findings.append(Finding(
                relpath, ln, "ecrpq-naked-mutex",
                f"naked std::{m.group(1)}; use the annotated "
                "Mutex/MutexLock/CondVar wrappers from "
                "common/annotations.h so -Wthread-safety sees this "
                "locking site"))
    return findings


def check_budget_poll(relpath, raw_lines, stripped, engine_files):
    if not any(relpath.endswith(e) or relpath == e for e in engine_files):
        return []
    if "CheckBudget" in stripped:
        return []
    if suppressed_lines(raw_lines, "ecrpq-budget-poll"):
        return []
    return [Finding(
        relpath, 1, "ecrpq-budget-poll",
        "engine search loop never polls Session::CheckBudget; budgets "
        "(kResourceExhausted) cannot trip inside this engine")]


def check_unordered_emission(relpath, raw_lines, stripped):
    findings = []
    supp = suppressed_lines(raw_lines, "ecrpq-unordered-emission")
    # Offsets of line starts, to map match positions to line numbers.
    line_starts = [0]
    for line in stripped.splitlines(True):
        line_starts.append(line_starts[-1] + len(line))

    def line_of(pos):
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    for m in re.finditer(r"\bfor\s*\(", stripped):
        head_end = balanced_extent(stripped, m.end() - 1)
        head = stripped[m.end():head_end - 1]
        if ":" not in head:
            continue  # Classic for loop.
        range_expr = head.rsplit(":", 1)[1].strip()
        ids = re.findall(r"[A-Za-z_]\w*", range_expr)
        if not ids:
            continue
        # The container variable: first identifier that is not a qualifier.
        skip = {"const", "auto", "this", "std"}
        var = next((i for i in ids if i not in skip), None)
        if var is None:
            continue
        decl_re = re.compile(UNORDERED_DECL_TMPL % re.escape(var), re.S)
        direct_re = re.compile(
            r"\bunordered_(?:map|set|multimap|multiset)\b")
        if not decl_re.search(stripped) and not direct_re.search(range_expr):
            continue
        # Loop body: next '{' (balanced) or single statement up to ';'.
        rest = stripped[head_end:]
        body_open = re.match(r"\s*\{", rest)
        if body_open:
            body_end = balanced_extent(stripped,
                                       head_end + body_open.end() - 1)
            body = stripped[head_end:body_end]
        else:
            semi = rest.find(";")
            body = rest[:semi + 1] if semi >= 0 else rest
        if EMISSION_RE.search(body):
            ln = line_of(m.start())
            if ln not in supp:
                findings.append(Finding(
                    relpath, ln, "ecrpq-unordered-emission",
                    f"range-for over unordered container '{var}' feeds "
                    "answer emission; hash order is nondeterministic — "
                    "sort first (determinism contract)"))
    return findings


def check_dcheck_side_effects(relpath, raw_lines, stripped):
    findings = []
    supp = suppressed_lines(raw_lines, "ecrpq-dcheck-side-effects")
    line_starts = [0]
    for line in stripped.splitlines(True):
        line_starts.append(line_starts[-1] + len(line))

    def line_of(pos):
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if line_starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    for m in DCHECK_CALL_RE.finditer(stripped):
        # Skip the macro's own definition (object-like piece before '(').
        arg_end = balanced_extent(stripped, m.end() - 1)
        arg = stripped[m.end():arg_end - 1]
        reasons = []
        if INCDEC_RE.search(arg):
            reasons.append("++/-- mutates state")
        if ASSIGN_RE.search(arg):
            reasons.append("assignment mutates state")
        mut = MUTATING_CALL_RE.search(arg)
        if mut:
            reasons.append(f"mutating call {mut.group(0).strip()}...)")
        if reasons:
            ln = line_of(m.start())
            if ln not in supp:
                findings.append(Finding(
                    relpath, ln, "ecrpq-dcheck-side-effects",
                    "ECRPQ_DCHECK condition has side effects ("
                    + "; ".join(reasons)
                    + ") — dchecks compile out of release builds"))
    return findings


def check_raw_worklist(relpath, raw_lines, stripped, extra_scope):
    in_scope = any(relpath.startswith(d) or ("/" + d) in relpath
                   for d in RAW_WORKLIST_DIRS)
    if not in_scope and os.path.basename(relpath) not in extra_scope:
        return []
    findings = []
    supp = suppressed_lines(raw_lines, "ecrpq-raw-worklist")
    for ln, line in enumerate(stripped.splitlines(), 1):
        m = RAW_WORKLIST_RE.search(line)
        if m and ln not in supp:
            findings.append(Finding(
                relpath, ln, "ecrpq-raw-worklist",
                f"raw std::{m.group(1)} worklist in an evaluation hot "
                "path; fan-out goes through WorkStealingDeque/"
                "FrontierScheduler (common/worklist.h) — NOLINT only for "
                "queues whose pop order is the algorithm"))
    return findings


def check_raw_determinize(relpath, raw_lines, stripped, extra_scope):
    in_scope = any(relpath.startswith(d) or ("/" + d) in relpath
                   for d in RAW_WORKLIST_DIRS)
    if not in_scope and os.path.basename(relpath) not in extra_scope:
        return []
    findings = []
    supp = suppressed_lines(raw_lines, "ecrpq-raw-determinize")
    for ln, line in enumerate(stripped.splitlines(), 1):
        if RAW_DETERMINIZE_RE.search(line) and ln not in supp:
            findings.append(Finding(
                relpath, ln, "ecrpq-raw-determinize",
                "raw Determinize( in an evaluation hot path; subset "
                "construction goes through "
                "AutomatonInterner::DeterminizeCached "
                "(automata/interner.h) — NOLINT only for deliberately "
                "uncached one-shot automata"))
    return findings


def check_raw_logging(relpath, raw_lines, stripped, extra_scope):
    in_scope = any(relpath.startswith(d) or ("/" + d) in relpath
                   for d in RAW_LOGGING_DIRS)
    if not in_scope and os.path.basename(relpath) not in extra_scope:
        return []
    findings = []
    supp = suppressed_lines(raw_lines, "ecrpq-raw-logging")
    for ln, line in enumerate(stripped.splitlines(), 1):
        m = RAW_LOGGING_RE.search(line)
        if m and ln not in supp:
            what = ("std::cerr" if "cerr" in m.group(0)
                    else "fprintf(stderr, ...)")
            findings.append(Finding(
                relpath, ln, "ecrpq-raw-logging",
                f"raw {what} in a trace-id-carrying layer; route "
                "diagnostics through the structured event log "
                "(obs::EventLog, common/event_log.h) or the metrics "
                "vocabulary — NOLINT only for allocation-free last-resort "
                "paths (fatal signal handling)"))
    return findings


def collect_sources(repo_root, build_dir):
    """First-party TUs from the compile database + first-party headers."""
    sources = []
    seen = set()
    db_path = os.path.join(build_dir, "compile_commands.json")
    if os.path.isfile(db_path):
        with open(db_path) as f:
            for entry in json.load(f):
                path = os.path.normpath(
                    os.path.join(entry.get("directory", ""), entry["file"]))
                if not path.startswith(os.path.normpath(repo_root) + os.sep):
                    continue
                rel = os.path.relpath(path, repo_root)
                if not any(rel.startswith(d + os.sep)
                           for d in FIRST_PARTY_DIRS):
                    continue
                if any(part in rel for part in EXCLUDE_DIR_PARTS):
                    continue
                if path not in seen and os.path.isfile(path):
                    seen.add(path)
                    sources.append(path)
    for d in FIRST_PARTY_DIRS:
        root = os.path.join(repo_root, d)
        for dirpath, _, names in os.walk(root):
            rel_dir = os.path.relpath(dirpath, repo_root)
            if any(part in rel_dir for part in EXCLUDE_DIR_PARTS):
                continue
            for name in sorted(names):
                if name.endswith((".h", ".hpp")):
                    path = os.path.join(dirpath, name)
                    if path not in seen:
                        seen.add(path)
                        sources.append(path)
    return sorted(sources)


def run_clang_query(repo_root, build_dir, files, mode):
    """Best-effort AST-level pass with the rules/*.cquery files. Returns a
    list of Findings. Matcher output is advisory; clang-query *errors* are
    reported as warnings, never lint failures (degrade policy)."""
    if mode == "off":
        return []
    cq = shutil.which("clang-query")
    if cq is None:
        if mode == "on":
            print("ecrpq_lint: --clang-query=on but clang-query not found",
                  file=sys.stderr)
            sys.exit(2)
        return []
    # Rules whose AST formulation must be narrowed to the rule's scope
    # directories (the portable text matchers scope themselves; clang-query
    # sees every TU).
    rule_dirs = {"ecrpq-raw-logging": RAW_LOGGING_DIRS}
    rules_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "rules")
    rule_files = sorted(
        os.path.join(rules_dir, f) for f in os.listdir(rules_dir)
        if f.endswith(".cquery"))
    tus = [f for f in files if f.endswith((".cc", ".cpp"))]
    findings = []
    for rule_file in rule_files:
        rule = "ecrpq-" + os.path.basename(rule_file)[:-len(".cquery")]
        try:
            proc = subprocess.run(
                [cq, "-p", build_dir, "-f", rule_file] + tus,
                capture_output=True, text=True, timeout=600)
        except (subprocess.SubprocessError, OSError) as e:
            print(f"ecrpq_lint: clang-query failed for {rule_file}: {e} "
                  "(ignored)", file=sys.stderr)
            continue
        if proc.returncode != 0:
            print(f"ecrpq_lint: clang-query error for {rule_file} "
                  "(ignored):\n" + proc.stderr[:2000], file=sys.stderr)
            continue
        for m in re.finditer(r'^([^\s:]+):(\d+):\d+: note: "root" binds here',
                             proc.stdout, re.M):
            path, line = m.group(1), int(m.group(2))
            rel = os.path.relpath(path, repo_root)
            if any(rel.endswith(allow) for allow in NAKED_MUTEX_ALLOWLIST):
                continue
            scope = rule_dirs.get(rule)
            if scope is not None and not any(rel.startswith(d)
                                             for d in scope):
                continue
            findings.append(Finding(rel, line, rule,
                                    "clang-query AST matcher fired"))
    return findings


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--build-dir", default=None,
                    help="build tree with compile_commands.json "
                         "(default: <repo>/build)")
    ap.add_argument("--repo-root", default=None)
    ap.add_argument("--rule", action="append", default=[],
                    help="run only these rules (repeatable)")
    ap.add_argument("--treat-as-engine", action="append", default=[],
                    help="additional file(s) the budget-poll rule applies "
                         "to (fixture tests)")
    ap.add_argument("--treat-as-worklist-scope", action="append", default=[],
                    help="additional file(s) the raw-worklist rule applies "
                         "to (fixture tests)")
    ap.add_argument("--treat-as-determinize-scope", action="append",
                    default=[],
                    help="additional file(s) the raw-determinize rule "
                         "applies to (fixture tests)")
    ap.add_argument("--treat-as-logging-scope", action="append", default=[],
                    help="additional file(s) the raw-logging rule applies "
                         "to (fixture tests)")
    ap.add_argument("--clang-query", choices=["auto", "on", "off"],
                    default="auto")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("files", nargs="*",
                    help="explicit files to lint (default: whole tree)")
    args = ap.parse_args()

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    repo_root = os.path.abspath(
        args.repo_root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", ".."))
    build_dir = os.path.abspath(args.build_dir
                                or os.path.join(repo_root, "build"))
    active = args.rule or RULES
    for r in active:
        if r not in RULES:
            print(f"ecrpq_lint: unknown rule '{r}' "
                  f"(known: {', '.join(RULES)})", file=sys.stderr)
            return 2

    if args.files:
        files = [os.path.abspath(f) for f in args.files]
    else:
        files = collect_sources(repo_root, build_dir)
    if not files:
        print("ecrpq_lint: no sources found", file=sys.stderr)
        return 2

    engine_files = ENGINE_FILES + [os.path.basename(f)
                                   for f in args.treat_as_engine]

    findings = []
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw = f.read()
        except OSError as e:
            print(f"ecrpq_lint: cannot read {path}: {e}", file=sys.stderr)
            return 2
        rel = os.path.relpath(path, repo_root)
        if rel.startswith(".."):
            rel = path  # Explicit file outside the repo (fixture runs).
        raw_lines = raw.splitlines()
        stripped = strip_comments_and_strings(raw)
        if "ecrpq-naked-mutex" in active:
            findings += check_naked_mutex(rel, raw_lines, stripped)
        if "ecrpq-budget-poll" in active:
            findings += check_budget_poll(rel, raw_lines, stripped,
                                          engine_files)
        if "ecrpq-unordered-emission" in active:
            findings += check_unordered_emission(rel, raw_lines, stripped)
        if "ecrpq-dcheck-side-effects" in active:
            findings += check_dcheck_side_effects(rel, raw_lines, stripped)
        if "ecrpq-raw-worklist" in active:
            findings += check_raw_worklist(
                rel, raw_lines, stripped,
                [os.path.basename(f)
                 for f in args.treat_as_worklist_scope])
        if "ecrpq-raw-determinize" in active:
            findings += check_raw_determinize(
                rel, raw_lines, stripped,
                [os.path.basename(f)
                 for f in args.treat_as_determinize_scope])
        if "ecrpq-raw-logging" in active:
            findings += check_raw_logging(
                rel, raw_lines, stripped,
                [os.path.basename(f)
                 for f in args.treat_as_logging_scope])

    if not args.files:  # Tree runs also get the AST-level pass.
        findings += run_clang_query(repo_root, build_dir, files,
                                    args.clang_query)

    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(f)
    if findings:
        print(f"ecrpq_lint: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"ecrpq_lint: clean ({len(files)} file(s), "
          f"{len(active)} rule(s))", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
