#!/usr/bin/env python3
"""Convention linter for the lac fabric stack.

Enforces the repo's load-bearing conventions -- the ones whose violation
compiles fine today and corrupts an invariant three PRs later:

  stray-kernel-switch   Per-kernel dispatch lives in the registry: no
                        `case KernelKind::...` outside
                        src/fabric/kernel_registry.cpp (PR 5). Tests are
                        exempt -- exhaustive switches over per-kernel pins
                        are the point there.
  registry-complete     Every KernelKind enumerator is registered: a
                        `case` in build_traits(), an entry in kAllKinds,
                        and a sized_request hook in its traits function
                        (perfbench's mixes and the golden tests build
                        traffic via sized_request, so a kind without one
                        is invisible to them).
  bench-schema          Every numeric field a bench emits into a
                        BENCH_*.json must carry a unit suffix (_cycles,
                        _nj, _w, _mm2, _ms, _per_s, ... -- or be a named
                        display unit like `gflops`), unless the key is a
                        recognizably dimensionless count/ratio (hits,
                        requests, utilization, speedup, ...). Unit-less
                        quantity keys are how the PR 3 mW-vs-W ambiguity
                        leaks into downstream tooling.
  raw-thread            No raw std::thread construction outside
                        src/common/: concurrency goes through the
                        ThreadPool so the sanitizer lanes and the
                        thread-safety annotations see every thread. Waive
                        a deliberate exception with a
                        `lint-allow(raw-thread)` comment on the line.
  metric-names          Every counter name registered with the
                        MetricsRegistry (any `"lac.…"` string literal in
                        product code) is dotted lowercase
                        `lac.<layer>.<name>` and its final segment either
                        carries a unit (`_us`, `_ns`, `_cycles`, ...) or
                        is a recognizable dimensionless count (`hits`,
                        `tasks`, `…_jobs`). Waive with
                        `lint-allow(metric-name)`.
  hot-alloc             No `new` / `make_unique` / `make_shared` in the
                        sim hot paths (src/sim/, src/kernels/, src/fft/,
                        src/fabric/stream_schedule.cpp): per-step
                        allocation is the regression the PR 10 arena
                        removed. One-time magic-static initializers are
                        exempt; waive a deliberate allocation with a
                        `lint-allow: hot-alloc (reason)` comment on the
                        line or the two lines above it -- the reason is
                        mandatory.
  raw-unit              Public headers under src/ must not declare a raw
                        `double` parameter, return type, or data member
                        whose name marks a physical quantity (*cycles*,
                        *energy*, *power*, *area*, *_nj, *_w, *_mm2): those
                        belong to the src/common/units.hpp strong types.
                        Waive a deliberate raw double with a
                        `lint-allow: raw-unit (reason)` comment on (or
                        directly above) the line, or a whole calibration
                        header with `lint-allow-file: raw-unit (...)`.
  blocking-under-lock   No blocking call (wait / submit / join / get) in
                        src/ outside src/common/ while a lac::MutexLock is
                        in scope -- the static complement to the TSan lane,
                        which only catches the deadlock when the schedule
                        cooperates. The condition-variable idiom
                        `cv.wait(mu)` (the call names the lock or its
                        mutex) is allowed. Waive with
                        `lint-allow: blocking-under-lock`.

--artifact FILE validates an emitted BENCH_*.json instead of sources: its
`meta` provenance object must carry every required key. The object is
streamed in from a helper at runtime, so bench-schema cannot see it in
the source.

Exit status 0 = clean, 1 = findings (printed one per line as
file:line: [check] message), 2 = linter could not run.

--self-test seeds one violation of each rule into an in-memory copy of
the tree and asserts the corresponding check reports it (run as the
`lint_selftest` CTest target, so a check that silently stops matching
the codebase fails CI the same way a violation would).
"""

import argparse
import json
import re
import sys
from pathlib import Path

REGISTRY = "src/fabric/kernel_registry.cpp"
REQUEST_HPP = "src/fabric/kernel_request.hpp"

# Directories holding product/tooling code the conventions bind. Tests are
# exempt from stray-kernel-switch (see above) but not from raw-thread,
# except via an explicit waiver.
PRODUCT_DIRS = ("src", "bench", "examples")


def strip_comments(text):
    """Drop // and /* */ comments, preserving line structure and strings."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n:
                out.append(text[i])
                if text[i] == "\\":
                    if i + 1 < n:
                        out.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i)
            out.append("\n" * text.count("\n", i, n if j < 0 else j + 2))
            i = n if j < 0 else j + 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def matched_body(text, open_brace):
    """Return (body, end) for the brace block opening at text[open_brace]."""
    depth = 0
    i = open_brace
    clean = text  # caller passes comment-stripped text
    while i < len(clean):
        c = clean[i]
        if c in "\"'":
            quote = c
            i += 1
            while i < len(clean):
                if clean[i] == "\\":
                    i += 2
                    continue
                if clean[i] == quote:
                    break
                i += 1
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return clean[open_brace + 1 : i], i
        i += 1
    return clean[open_brace + 1 :], len(clean)


class Tree:
    """File set the checks run against (real repo or a seeded copy)."""

    def __init__(self, files):
        self.files = files  # {relpath: text}

    @classmethod
    def load(cls, repo):
        files = {}
        for d in PRODUCT_DIRS:
            root = repo / d
            if not root.is_dir():
                continue
            for p in sorted(root.rglob("*")):
                if p.suffix in (".cpp", ".hpp", ".h"):
                    rel = p.relative_to(repo).as_posix()
                    files[rel] = p.read_text(encoding="utf-8", errors="replace")
        return cls(files)


def check_stray_kernel_switch(tree):
    findings = []
    pat = re.compile(r"case\s+[\w:]*KernelKind::")
    for rel, text in tree.files.items():
        if rel == REGISTRY:
            continue
        clean = strip_comments(text)
        for m in pat.finditer(clean):
            findings.append(
                (rel, line_of(clean, m.start()),
                 "switch on KernelKind outside the kernel registry -- "
                 "register per-kernel behaviour in kernel_registry.cpp")
            )
    return findings


def kernel_kinds(tree):
    """Enumerators of `enum class KernelKind` from kernel_request.hpp."""
    text = tree.files.get(REQUEST_HPP, "")
    clean = strip_comments(text)
    m = re.search(r"enum\s+class\s+KernelKind\s*\{", clean)
    if not m:
        return []
    body, _ = matched_body(clean, m.end() - 1)
    return re.findall(r"\b([A-Z]\w*)\b\s*(?:=[^,}]*)?(?:,|$)", body)


def check_registry_complete(tree):
    findings = []
    kinds = kernel_kinds(tree)
    if not kinds:
        return [(REQUEST_HPP, 1, "could not parse enum class KernelKind")]
    reg = strip_comments(tree.files.get(REGISTRY, ""))
    if not reg:
        return [(REGISTRY, 1, "kernel_registry.cpp missing")]

    # build_traits(): one `case KernelKind::X: return x_traits();` per kind.
    dispatch = dict(
        re.findall(r"case\s+KernelKind::(\w+)\s*:\s*return\s+(\w+)\s*\(\)", reg)
    )
    # kAllKinds: the registry's construction-order table.
    all_kinds_m = re.search(r"kAllKinds\[\]\s*=\s*\{", reg)
    all_kinds = (
        set(re.findall(r"KernelKind::(\w+)", matched_body(reg, all_kinds_m.end() - 1)[0]))
        if all_kinds_m
        else set()
    )
    # Traits factory bodies, for the per-kind sized_request requirement.
    bodies = {}
    for fm in re.finditer(r"KernelTraits\s+(\w+)\s*\(\s*\)\s*\{", reg):
        bodies[fm.group(1)] = matched_body(reg, fm.end() - 1)[0]

    for kind in kinds:
        if kind not in dispatch:
            findings.append(
                (REGISTRY, 1,
                 f"KernelKind::{kind} has no `case` in build_traits() -- "
                 "unregistered kinds fail every backend in-band")
            )
            continue
        if kind not in all_kinds:
            findings.append(
                (REGISTRY, 1,
                 f"KernelKind::{kind} missing from kAllKinds[] -- it would "
                 "never be constructed into the registry")
            )
        fn = dispatch[kind]
        body = bodies.get(fn, "")
        if "sized_request" not in body:
            findings.append(
                (REGISTRY, 1,
                 f"{fn}() registers KernelKind::{kind} without a "
                 "sized_request hook -- perfbench's mixes and the golden "
                 "tests cannot build traffic for it")
            )
    return findings


def check_raw_thread(tree):
    findings = []
    # std::thread as a type use (construction/member); `std::thread::x`
    # statics like hardware_concurrency are fine anywhere.
    pat = re.compile(r"std::thread\b(?!::)")
    for rel, text in tree.files.items():
        if rel.startswith("src/common/"):
            continue
        clean = strip_comments(text)
        lines = clean.splitlines()
        raw_lines = text.splitlines()
        for i, line in enumerate(lines):
            if pat.search(line):
                raw = raw_lines[i] if i < len(raw_lines) else ""
                if "lint-allow(raw-thread)" in raw:
                    continue
                findings.append(
                    (rel, i + 1,
                     "raw std::thread outside src/common/ -- use the shared "
                     "ThreadPool (or waive with lint-allow(raw-thread))")
                )
    return findings


# JSON keys inside bench sources: `\"key\": ` inside a C++ string literal.
# Group 2 captures what immediately follows the colon *inside the same
# literal*: an opening quote means a string value, `[`/`{` a nested
# container -- both exempt from the unit rule.
BENCH_JSON_KEY = re.compile(r'\\"([A-Za-z0-9_]+)\\":\s?(\\"|\[|\{)?')

# Unit-bearing final tokens: `energy_nj`, `p99_ms`, `requests_per_s`,
# `avg_power_w`, `energy_delay_mw_per_gflops2` -- and bare display-unit
# names (`cycles`, `watts`, `gflops`).
UNIT_TOKENS = {
    "cycles", "nj", "pj", "w", "mw", "watts", "mm2", "ms", "us", "ns", "s",
    "ghz", "gflops", "gflops2", "bytes", "kb", "mb",
}

# Dimensionless counts/ratios/config echoes: allowed without a suffix.
DIMENSIONLESS_KEYS = {"smoke", "n", "nr", "bw", "utilization"}
DIMENSIONLESS_TOKENS = {"points", "hits", "misses", "rate", "width"}

# Keys whose values are runtime-composed JSON objects streamed in from a
# helper (`<< meta_json(...)`), so the source-level regex cannot see the
# `{` that proves them non-numeric. The --artifact validation CI runs on
# the emitted files checks their contents.
RUNTIME_SECTION_KEYS = {"meta"}


def check_bench_schema(tree):
    findings = []
    for rel, text in tree.files.items():
        if not rel.startswith("bench/"):
            continue
        if "BENCH_" not in text:
            continue  # bench prints tables only; no JSON schema to check
        clean = strip_comments(text)
        raw_lines = text.splitlines()
        for m in BENCH_JSON_KEY.finditer(clean):
            key, value_head = m.group(1), m.group(2)
            if value_head is not None:
                continue  # string-valued or nested object/array field
            if key in RUNTIME_SECTION_KEYS:
                continue  # object streamed from a helper; --artifact checks it
            last = key.rsplit("_", 1)[-1]
            if last in UNIT_TOKENS:
                continue
            if key in DIMENSIONLESS_KEYS or last in DIMENSIONLESS_TOKENS:
                continue
            line = line_of(clean, m.start())
            raw = raw_lines[line - 1] if line <= len(raw_lines) else ""
            if "lint-allow(bench-unit)" in raw:
                continue
            findings.append(
                (rel, line,
                 f"numeric BENCH json field `{key}` has no unit suffix "
                 "(_cycles, _nj, _w, _mm2, _ms, _per_s, ...) and is not a "
                 "known dimensionless count/ratio -- name the unit (or "
                 "waive with lint-allow(bench-unit))")
            )
    return findings


# ---------------------------------------------------------------------------
# metric-names: registry metric literals in product code.

# A metric-name (or metric-name-prefix) string literal: `"lac.` followed by
# dotted segments. Captures the literal's contents up to the closing quote.
METRIC_LITERAL = re.compile(r'"(lac\.[^"\\]*)"')

# Final-segment tokens that read as a count without a unit: the name *is*
# the dimension. Everything else numeric must end in a unit suffix.
METRIC_DIMENSIONLESS_TOKENS = {
    "hits", "misses", "inserts", "requests", "tasks", "jobs", "units",
    "events", "drops", "errors", "retries", "count", "steals",
}


def metric_name_findings(name, where="metric name"):
    """Rule violations for one full metric name (no trailing dot)."""
    problems = []
    segments = name.split(".")
    if any(not re.fullmatch(r"[a-z][a-z0-9_]*", s) for s in segments):
        problems.append(
            f"{where} `{name}` is not dotted lowercase "
            "`lac.<layer>.<name>` (segments are [a-z][a-z0-9_]*)")
        return problems
    if len(segments) < 3:
        problems.append(
            f"{where} `{name}` needs at least `lac.<layer>.<name>`")
        return problems
    last_token = segments[-1].rsplit("_", 1)[-1]
    if last_token not in UNIT_TOKENS and \
            last_token not in METRIC_DIMENSIONLESS_TOKENS:
        problems.append(
            f"{where} `{name}` final segment carries no unit suffix "
            "(_us, _ns, _cycles, ...) and is not a recognizable "
            "dimensionless count")
    return problems


# ---------------------------------------------------------------------------
# hot-alloc: no per-call allocation in the sim hot paths.

# Directories/files whose code runs per simulated step or per kernel call.
# Construction-time allocation belongs in src/fabric executors and the
# arch/ presets; anything allocating here runs millions of times per bench.
HOT_ALLOC_PATHS = ("src/sim/", "src/kernels/", "src/fft/",
                   "src/fabric/stream_schedule.cpp")
HOT_ALLOC_PATTERN = re.compile(
    r"\bnew\b|std::make_unique\s*<|std::make_shared\s*<")
# Waiver with a mandatory reason, on the flagged line or up to two lines
# above (multi-line comment style).
HOT_ALLOC_WAIVER = re.compile(r"lint-allow:\s*hot-alloc\s*\(\S")


def check_hot_alloc(tree):
    findings = []
    for rel, text in tree.files.items():
        if not any(rel.startswith(p) for p in HOT_ALLOC_PATHS):
            continue
        clean = strip_comments(text)
        lines = clean.splitlines()
        raw_lines = text.splitlines()
        for i, line in enumerate(lines):
            if not HOT_ALLOC_PATTERN.search(line):
                continue
            # One-time magic-static initializers (metric handles) are not
            # hot: they allocate once per process.
            if re.match(r"\s*static\b", line):
                continue
            context = "\n".join(raw_lines[max(0, i - 2) : i + 1])
            if HOT_ALLOC_WAIVER.search(context):
                continue
            findings.append(
                (rel, i + 1,
                 "allocation in a sim hot path -- use the SimArena core "
                 "pool / Scratch freelists, hoist the buffer out of the "
                 "loop, or waive with `lint-allow: hot-alloc (reason)`")
            )
    return findings


def check_metric_names(tree):
    findings = []
    for rel, text in tree.files.items():
        clean = strip_comments(text)
        raw_lines = text.splitlines()
        for m in METRIC_LITERAL.finditer(clean):
            literal = m.group(1)
            line = line_of(clean, m.start())
            raw = raw_lines[line - 1] if line <= len(raw_lines) else ""
            if "lint-allow(metric-name)" in raw:
                continue
            for msg in metric_name_findings(literal):
                findings.append((rel, line, msg))
    return findings


# ---------------------------------------------------------------------------
# raw-unit: dimensioned quantities in public headers use units.hpp types.

UNITS_HPP = "src/common/units.hpp"
UNIT_NAME = re.compile(r"(cycles|energy|power|area)", re.I)
UNIT_SUFFIX = re.compile(r"(_nj|_w|_mm2)$")
# Return types, parameters, members: three declaration shapes of a raw
# `double` carrying a dimensioned name.
RAW_UNIT_DECLS = (
    (re.compile(r"\bdouble\s+([A-Za-z_]\w*)\s*\("), "return of"),
    (re.compile(r"\bdouble\s*&?\s+([A-Za-z_]\w*)\s*(?=[,)])"), "parameter"),
    (re.compile(r"\bdouble\s+([A-Za-z_]\w*)\s*(?:=[^;(){}]*)?;"), "member"),
)


def waived(raw_lines, line, tag):
    """True if `lint-allow: <tag>` sits on the line or the one above."""
    return any(0 <= idx < len(raw_lines) and f"lint-allow: {tag}" in raw_lines[idx]
               for idx in (line - 1, line - 2))


def check_raw_unit(tree):
    findings = []
    for rel, text in tree.files.items():
        if not rel.startswith("src/") or not rel.endswith((".hpp", ".h")):
            continue
        if rel == UNITS_HPP or "lint-allow-file: raw-unit" in text:
            continue
        clean = strip_comments(text)
        raw_lines = text.splitlines()
        for pat, what in RAW_UNIT_DECLS:
            for m in pat.finditer(clean):
                name = m.group(1)
                if not (UNIT_NAME.search(name) or UNIT_SUFFIX.search(name)):
                    continue
                line = line_of(clean, m.start())
                if waived(raw_lines, line, "raw-unit"):
                    continue
                findings.append(
                    (rel, line,
                     f"raw double {what} `{name}` carries a physical "
                     "dimension -- use the units.hpp strong type (or waive "
                     "with `lint-allow: raw-unit (reason)`)")
                )
    return findings


# ---------------------------------------------------------------------------
# blocking-under-lock: no blocking call while a MutexLock is in scope.

MUTEX_LOCK_DECL = re.compile(
    r"\b(?:lac::)?MutexLock\s+(\w+)\s*[({]\s*([^;(){}]*?)\s*[)}]")
BLOCKING_CALL = re.compile(r"\b(wait|submit|join|get)\s*\(")


def scope_end(clean, pos):
    """End position of the brace scope enclosing `pos`."""
    depth = 0
    i = pos
    while i < len(clean):
        c = clean[i]
        if c in "\"'":
            quote = c
            i += 1
            while i < len(clean):
                if clean[i] == "\\":
                    i += 2
                    continue
                if clean[i] == quote:
                    break
                i += 1
        elif c == "{":
            depth += 1
        elif c == "}":
            if depth == 0:
                return i
            depth -= 1
        i += 1
    return len(clean)


def call_args(clean, open_paren):
    """Argument text of the call whose '(' sits at clean[open_paren]."""
    depth = 0
    for i in range(open_paren, len(clean)):
        if clean[i] == "(":
            depth += 1
        elif clean[i] == ")":
            depth -= 1
            if depth == 0:
                return clean[open_paren + 1 : i]
    return clean[open_paren + 1 :]


def check_blocking_under_lock(tree):
    findings = []
    for rel, text in tree.files.items():
        if not rel.startswith("src/") or rel.startswith("src/common/"):
            continue
        clean = strip_comments(text)
        raw_lines = text.splitlines()
        for m in MUTEX_LOCK_DECL.finditer(clean):
            lock_names = (m.group(1), m.group(2))
            for cm in BLOCKING_CALL.finditer(clean, m.end(),
                                             scope_end(clean, m.end())):
                callee = cm.group(1)
                # cv.wait(lock) / cv.wait(mu_): the blocking call that names
                # the lock (or the mutex it guards) is the CondVar idiom.
                args = call_args(clean, cm.end() - 1)
                if callee == "wait" and any(
                        n and re.search(rf"\b{re.escape(n)}\b", args)
                        for n in lock_names):
                    continue
                line = line_of(clean, cm.start())
                if waived(raw_lines, line, "blocking-under-lock"):
                    continue
                findings.append(
                    (rel, line,
                     f"`{callee}()` blocks while MutexLock `{m.group(1)}` "
                     f"(declared line {line_of(clean, m.start())}) is held "
                     "-- release the lock first, or waive with "
                     "`lint-allow: blocking-under-lock`")
                )
    return findings


# ---------------------------------------------------------------------------
# --artifact: runtime validation of emitted BENCH JSON.

REQUIRED_META_KEYS = {"git_sha", "build_type", "timestamp", "worker_width"}


def validate_artifact_data(rel, data):
    """Findings for one parsed BENCH_*.json."""
    meta = data.get("meta")
    if not isinstance(meta, dict):
        return [(rel, 1, "BENCH json has no `meta` provenance object")]
    missing = REQUIRED_META_KEYS - set(meta)
    if missing:
        return [(rel, 1, f"BENCH `meta` is missing {sorted(missing)}")]
    return []


def validate_artifact_file(path):
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return [(str(path), 1, f"unreadable artifact: {e}")]
    if not isinstance(data, dict):
        return [(str(path), 1, "artifact root is not a JSON object")]
    return validate_artifact_data(str(path), data)


CHECKS = {
    "stray-kernel-switch": check_stray_kernel_switch,
    "bench-schema": check_bench_schema,
    "registry-complete": check_registry_complete,
    "raw-thread": check_raw_thread,
    "metric-names": check_metric_names,
    "hot-alloc": check_hot_alloc,
    "raw-unit": check_raw_unit,
    "blocking-under-lock": check_blocking_under_lock,
}


def run_checks(tree, names):
    findings = []
    for name in names:
        for rel, line, msg in CHECKS[name](tree):
            findings.append(f"{rel}:{line}: [{name}] {msg}")
    return findings


def self_test(tree):
    """Seed one violation per check into a copy; every seed must be caught."""
    failures = []

    def seeded(mutate):
        copy = Tree(dict(tree.files))
        mutate(copy.files)
        return copy

    # Every seed edits a file that must exist: a seed aimed at a deleted or
    # renamed file raises KeyError instead of silently linting nothing.

    # stray-kernel-switch: a switch on KernelKind in a product file.
    def seed_switch(files):
        files["src/fabric/serving.cpp"] += (
            "\nint lint_seed(lac::fabric::KernelKind k) {\n"
            "  switch (k) { case lac::fabric::KernelKind::Gemm: return 1; "
            "default: return 0; }\n}\n"
        )

    # registry-complete: drop the Fft dispatch case.
    def seed_registry(files):
        files[REGISTRY] = re.sub(
            r"case\s+KernelKind::Fft\s*:\s*return\s+fft_traits\s*\(\s*\)\s*;",
            "", files[REGISTRY], count=1)

    # registry-complete: a traits factory without sized_request.
    def seed_sized_request(files):
        files[REGISTRY] = re.sub(r"t\.sized_request", "t.lint_seed",
                                 files[REGISTRY], count=1)

    # bench-schema: a numeric JSON field with no unit suffix.
    def seed_bench_schema(files):
        files["bench/bench_codesign.cpp"] += (
            "\nstatic void lint_seed(std::ostream& os) {\n"
            "  os << \"\\\"latency\\\": \" << 1.0;  // BENCH_seed.json\n"
            "}\n"
        )

    # raw-thread: a spawned std::thread outside src/common/.
    def seed_thread(files):
        files["src/sched/graph_builders.cpp"] += (
            "\nvoid lint_seed() { std::thread t([] {}); t.join(); }\n"
        )

    # metric-names: a unit-less, non-count metric registration in src/.
    def seed_metric_name(files):
        files["src/common/thread_pool.cpp"] += (
            "\nstatic const char* lint_seed = \"lac.pool.latency\";\n"
        )

    # metric-names: an uppercase segment (backend names must be lowered).
    def seed_metric_case(files):
        files["src/fabric/serving.cpp"] += (
            "\nstatic const char* lint_seed = \"lac.serving.GEMM.requests\";\n"
        )

    # hot-alloc: an unwaived per-call allocation in a sim hot path.
    def seed_hot_alloc(files):
        files["src/sim/arena.cpp"] += (
            "\nnamespace { double* lint_seed() { return new double[8]; } }\n"
        )

    # hot-alloc: a waiver without a reason must NOT silence the finding.
    def seed_hot_alloc_bare_waiver(files):
        files["src/sim/arena.cpp"] += (
            "\nnamespace { double* lint_seed() {\n"
            "  // lint-allow: hot-alloc\n"
            "  return new double[8];\n} }\n"
        )

    # raw-unit: a dimensioned double return + parameter in a public header.
    def seed_raw_unit(files):
        files[REQUEST_HPP] += (
            "\nnamespace lac::fabric {\n"
            "double lint_seed_energy_nj(double busy_cycles);\n"
            "}  // namespace lac::fabric\n"
        )

    # blocking-under-lock: a get() while a MutexLock is live, spliced in
    # before the file's closing namespace brace so it sits in a scope.
    def seed_blocking(files):
        rel = "src/sched/graph_scheduler.cpp"
        text = files[rel]
        cut = text.rfind("\n}")
        files[rel] = text[:cut] + (
            "\nvoid lint_seed_blocking(Mutex& mu, ThreadPool& pool) {\n"
            "  MutexLock lock(mu);\n"
            "  pool.submit([] { return 0; }).get();\n"
            "}\n"
        ) + text[cut:]

    seeds = [
        ("stray-kernel-switch", seed_switch),
        ("bench-schema", seed_bench_schema),
        ("registry-complete", seed_registry),
        ("registry-complete", seed_sized_request),
        ("raw-thread", seed_thread),
        ("metric-names", seed_metric_name),
        ("metric-names", seed_metric_case),
        ("hot-alloc", seed_hot_alloc),
        ("hot-alloc", seed_hot_alloc_bare_waiver),
        ("raw-unit", seed_raw_unit),
        ("blocking-under-lock", seed_blocking),
    ]
    for name, mutate in seeds:
        try:
            hits = run_checks(seeded(mutate), [name])
        except KeyError as missing:
            failures.append(f"self-test: [{name}] seed `{mutate.__name__}` "
                            f"targets missing file {missing}")
            continue
        if not hits:
            failures.append(f"self-test: [{name}] seed `{mutate.__name__}` "
                            "was NOT caught")
        else:
            print(f"self-test: [{name}] {mutate.__name__} caught: {hits[0]}")

    # Artifact-validation seeds: each bad fixture must be caught, and the
    # good fixture must be clean.
    good_meta = {"git_sha": "abc123", "build_type": "Release",
                 "timestamp": "2026-01-01T00:00:00Z", "worker_width": 8}
    artifact_cases = [
        ("good bench", {"meta": good_meta, "records": []}, False),
        ("bench without meta", {"records": []}, True),
        ("meta missing keys", {"meta": {"git_sha": "abc123"}}, True),
    ]
    for label, data, expect_findings in artifact_cases:
        hits = validate_artifact_data(label, data)
        if bool(hits) != expect_findings:
            failures.append(
                f"self-test: [artifact] `{label}` expected "
                f"{'findings' if expect_findings else 'clean'}, got "
                f"{hits or 'clean'}")
        else:
            print(f"self-test: [artifact] {label}: "
                  f"{'caught: ' + str(hits[0]) if hits else 'clean'}")

    # And the pristine tree must be clean, or the seeds prove nothing.
    pristine = run_checks(tree, list(CHECKS))
    for f in pristine:
        failures.append(f"self-test: pristine tree not clean: {f}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=".", help="repository root")
    ap.add_argument("--check", action="append", choices=sorted(CHECKS),
                    help="run only this check (repeatable; default: all)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every check catches a seeded violation")
    ap.add_argument("--artifact", action="append", metavar="FILE",
                    help="validate an emitted BENCH_*.json instead of "
                         "linting sources (repeatable)")
    args = ap.parse_args()

    if args.artifact:
        findings = []
        for path in args.artifact:
            for rel, line, msg in validate_artifact_file(path):
                findings.append(f"{rel}:{line}: [artifact] {msg}")
        for f in findings:
            print(f)
        print(f"lint --artifact: {len(findings)} finding(s) across "
              f"{len(args.artifact)} file(s)"
              + (" -- FAIL" if findings else " -- OK"))
        return 1 if findings else 0

    repo = Path(args.repo).resolve()
    if not (repo / REQUEST_HPP).is_file():
        print(f"lint: {repo} does not look like the lac repo "
              f"(missing {REQUEST_HPP})", file=sys.stderr)
        return 2
    tree = Tree.load(repo)

    if args.self_test:
        failures = self_test(tree)
        for f in failures:
            print(f, file=sys.stderr)
        print(f"lint self-test: {'FAIL' if failures else 'OK'}")
        return 1 if failures else 0

    findings = run_checks(tree, args.check or list(CHECKS))
    for f in findings:
        print(f)
    print(f"lint: {len(findings)} finding(s) across "
          f"{len(tree.files)} files" + (" -- FAIL" if findings else " -- OK"))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
