#!/usr/bin/env python3
"""Repo structural-invariant linter (CI lint step).

Enforces, over the tracked sources in src/, the structural rules that the
thread-safety work (docs/CONCURRENCY.md) made load-bearing. Unlike the Clang
Thread Safety Analysis job — which needs clang — these checks are plain text
scans, so they run everywhere (g++-only containers included) and catch
violations before the annotation build does.

Rules:

  1. sync-primitives: raw standard-library threading types (std::mutex,
     std::shared_mutex, std::condition_variable, std::lock_guard,
     std::unique_lock, std::scoped_lock, std::shared_lock, std::thread, ...)
     appear ONLY in src/util/sync.h. Everyone else goes through the annotated
     util::Mutex / util::CondVar / util::MutexLock / util::Thread wrappers,
     or the analysis cannot see their locking. `std::thread::id` is the one
     allowed escape — it is a value type, not a primitive.
     This check is deliberately run over the RAW text, comments included:
     the acceptance gate is `grep -r "std::mutex" src/ | grep -v util/sync.h`
     being empty, so even a comment naming the raw type is rejected (name the
     wrapper instead).

  2. no-tsa-suppressions: NO_THREAD_SAFETY_ANALYSIS appears only in
     src/util/sync.h (where the macro is defined). The annotation build runs
     -Wthread-safety -Werror with zero suppressions; an escape hatch anywhere
     else silently voids the guarantee.

  3. no-sleeps-in-core: blocking sleeps (std::this_thread::sleep_for /
     sleep_until, usleep, nanosleep) are banned in src/core/** — stage drain
     functions run on shared executor workers, and a sleeping drain stalls
     every plane sharing the pool (executor.h's deadlock-freedom rule).
     Deliberate latency injection lives in the storage decorators
     (latency_store.cc, retrying_store.cc), which run on store-facing paths.
     Comments are stripped first: prose may discuss sleeping.

  4. manifest-version-documented: storage::Manifest::kFormatVersion (parsed
     out of src/storage/manifest.h) must appear as a version literal in
     docs/MANIFEST_FORMAT.md — bumping the wire format without documenting
     it breaks the doc's compatibility contract.

  5. deletes-in-one-place: in src/core/**, a store `Delete(` call appears
     only in maintenance.cc (GC and quota eviction, through the one
     retention rule and delete routine) and delta_log.cc (compaction and
     torn-tail truncation). A second deleter of lineages is how GC copies
     drifted apart before. Lines declaring an `override` (store decorators)
     are exempt; comments and strings are stripped first.

  6. one-worker-runtime: util::Thread, the only way to start a thread in
     src/ (rule 1 bans the raw std::thread), is named only in util/sync.h
     (its definition), core/pipeline/executor.{h,cc} (the StageExecutor,
     the library's one parallel runtime, which sizes each stage from
     measured load) and data/reader.{h,cc} (the reader tier's workers, a
     separate service in the paper, §4.1). A private pool anywhere else
     takes its parallelism from a constant and competes with the executor
     for the same cores. Comments and strings are stripped first.

Usage: python3 tools/check_invariants.py [repo_root]
Exit 0 if every invariant holds, 1 otherwise (violations listed on stderr).
"""
import os
import re
import sys

SRC_EXTENSIONS = (".h", ".cc", ".cpp")

# Rule 1: the raw primitives and the files allowed to name them.
SYNC_HEADER = os.path.join("src", "util", "sync.h")
RAW_PRIMITIVES = [
    "std::mutex",
    "std::timed_mutex",
    "std::recursive_mutex",
    "std::recursive_timed_mutex",
    "std::shared_mutex",
    "std::shared_timed_mutex",
    "std::condition_variable",  # also matches condition_variable_any
    "std::lock_guard",
    "std::unique_lock",
    "std::scoped_lock",
    "std::shared_lock",
    "std::thread",
]
# std::thread::id is a plain value type (worker retire/reap bookkeeping uses
# it); std::this_thread is the namespace sleep/yield helpers live in and is
# policed by rule 3, not rule 1.
THREAD_OK = re.compile(r"std::thread::id|std::this_thread")

# Rule 3: sleep calls, and where they are allowed.
SLEEP_PATTERN = re.compile(
    r"std::this_thread::sleep_for|std::this_thread::sleep_until"
    r"|\busleep\s*\(|\bnanosleep\s*\("
)
SLEEP_BAN_PREFIX = os.path.join("src", "core") + os.sep
SLEEP_ALLOWED = {
    os.path.join("src", "storage", "latency_store.cc"),
    os.path.join("src", "storage", "retrying_store.cc"),
}

# Rule 5: where src/core/ may delete objects.
DELETE_PATTERN = re.compile(r"\bDelete\s*\(")
DELETE_ALLOWED = {
    os.path.join("src", "core", "maintenance.cc"),
    os.path.join("src", "core", "delta_log.cc"),
}

# Rule 6: the files that may start threads.
THREAD_PATTERN = re.compile(r"\bThread\b")
THREAD_ALLOWED = {
    SYNC_HEADER,
    os.path.join("src", "core", "pipeline", "executor.h"),
    os.path.join("src", "core", "pipeline", "executor.cc"),
    os.path.join("src", "data", "reader.h"),
    os.path.join("src", "data", "reader.cc"),
}

LINE_COMMENT = re.compile(r"//.*")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_LIT = re.compile(r'"(?:[^"\\]|\\.)*"')


def strip_comments(text: str) -> str:
    """Remove comments and string literals, preserving line numbers."""

    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    text = STRING_LIT.sub(blank, text)
    text = BLOCK_COMMENT.sub(blank, text)
    return LINE_COMMENT.sub(blank, text)


def iter_source_files(root: str):
    src = os.path.join(root, "src")
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if name.endswith(SRC_EXTENSIONS):
                full = os.path.join(dirpath, name)
                yield full, os.path.relpath(full, root)


def check_sync_primitives(root, failures):
    for full, rel in iter_source_files(root):
        if rel == SYNC_HEADER:
            continue
        with open(full, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                for prim in RAW_PRIMITIVES:
                    # Word-boundary on the right so std::thread does not also
                    # fire on std::thread::id (stripped below).
                    for m in re.finditer(re.escape(prim) + r"\b", line):
                        if prim == "std::thread":
                            tail = line[m.start():]
                            if THREAD_OK.match(tail):
                                continue
                        failures.append(
                            f"{rel}:{lineno}: raw `{prim}` outside "
                            f"{SYNC_HEADER} — use the util::sync.h wrappers"
                        )


def check_tsa_suppressions(root, failures):
    for full, rel in iter_source_files(root):
        if rel == SYNC_HEADER:
            continue
        with open(full, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if "NO_THREAD_SAFETY_ANALYSIS" in line:
                    failures.append(
                        f"{rel}:{lineno}: NO_THREAD_SAFETY_ANALYSIS outside "
                        f"{SYNC_HEADER} — the annotation build allows zero "
                        "suppressions; annotate instead"
                    )


def check_sleeps(root, failures):
    for full, rel in iter_source_files(root):
        if rel in SLEEP_ALLOWED:
            continue
        with open(full, encoding="utf-8") as f:
            code = strip_comments(f.read())
        for lineno, line in enumerate(code.splitlines(), 1):
            if not SLEEP_PATTERN.search(line):
                continue
            if rel.startswith(SLEEP_BAN_PREFIX):
                failures.append(
                    f"{rel}:{lineno}: blocking sleep in src/core/ — drains "
                    "run on shared executor workers; wait on a CondVar or "
                    "use util::SimClock instead"
                )
            else:
                failures.append(
                    f"{rel}:{lineno}: blocking sleep outside the latency-"
                    "injection allowlist (tools/check_invariants.py "
                    "SLEEP_ALLOWED) — if this is deliberate latency "
                    "injection, extend the allowlist in the same change"
                )


def check_deletes(root, failures):
    for full, rel in iter_source_files(root):
        if not rel.startswith(SLEEP_BAN_PREFIX) or rel in DELETE_ALLOWED:
            continue
        with open(full, encoding="utf-8") as f:
            code = strip_comments(f.read())
        for lineno, line in enumerate(code.splitlines(), 1):
            if DELETE_PATTERN.search(line) and "override" not in line:
                failures.append(
                    f"{rel}:{lineno}: store Delete outside maintenance.cc / "
                    "delta_log.cc — lineages are deleted only through the "
                    "maintenance plane's retention rule (core::GcJob, "
                    "MaintenanceManager::EvictForQuota)"
                )


def check_worker_runtime(root, failures):
    for full, rel in iter_source_files(root):
        if rel in THREAD_ALLOWED:
            continue
        with open(full, encoding="utf-8") as f:
            code = strip_comments(f.read())
        for lineno, line in enumerate(code.splitlines(), 1):
            if THREAD_PATTERN.search(line):
                failures.append(
                    f"{rel}:{lineno}: util::Thread outside the StageExecutor "
                    "(core/pipeline/executor.*) and the reader tier "
                    "(data/reader.*) — run parallel work as executor stages"
                )


def check_manifest_version(root, failures):
    manifest = os.path.join(root, "src", "storage", "manifest.h")
    doc = os.path.join(root, "docs", "MANIFEST_FORMAT.md")
    try:
        with open(manifest, encoding="utf-8") as f:
            m = re.search(r"kFormatVersion\s*=\s*(\d+)", f.read())
    except OSError:
        failures.append("src/storage/manifest.h: unreadable (kFormatVersion check)")
        return
    if not m:
        failures.append(
            "src/storage/manifest.h: kFormatVersion not found — the "
            "manifest-version-documented invariant cannot be checked"
        )
        return
    version = m.group(1)
    try:
        with open(doc, encoding="utf-8") as f:
            doc_text = f.read()
    except OSError:
        failures.append("docs/MANIFEST_FORMAT.md: missing (kFormatVersion check)")
        return
    # The doc must state the current version as a standalone literal
    # (e.g. "version `3`" or "| 3 |"), not merely as part of a larger number.
    if not re.search(r"(?<![\d.])" + re.escape(version) + r"(?![\d.])", doc_text):
        failures.append(
            f"docs/MANIFEST_FORMAT.md: does not mention manifest format "
            f"version {version} — a kFormatVersion bump must update the "
            "format doc in the same change"
        )


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    failures: list[str] = []
    check_sync_primitives(root, failures)
    check_tsa_suppressions(root, failures)
    check_sleeps(root, failures)
    check_deletes(root, failures)
    check_worker_runtime(root, failures)
    check_manifest_version(root, failures)
    if failures:
        print(f"check_invariants: {len(failures)} violation(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("check_invariants: all invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
