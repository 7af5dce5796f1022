"""--self-test: non-vacuity proof for every checker and suppression.

Mirrors the model checker's sabotage modes: each checker must fire on
its `*_bad` fixture (with the expected finding count floor) and stay
silent on its `*_ok` companion, which re-states the same constructs
either rewritten the approved way or carrying allow() annotations. A
checker edit that goes blind — or a suppression parser that stops
suppressing — fails this test instead of silently passing the tree.

Runs under the text backend always, and again under the AST backend
when libclang is available, so CI proves both paths.

Fixtures are passed as explicit files, which every check scans whatever
its directory scope. So a second pass pins the scopes: it plants one
violation per check under each directory that check must cover, in a
scratch git tree scanned the way the repo is, and requires every plant
to be reported (text backend; both backends share the scope tuples).
"""

import os
import subprocess
import sys
import tempfile

from . import astlib
from . import checks as checks_pkg

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
FIX = "tools/analyze/fixtures"

# (check, bad file-set or root, ok file-set or root, min bad findings)
CASES = [
    ("determinism", [f"{FIX}/determinism_bad.cc"],
     [f"{FIX}/determinism_ok.cc"], 4),
    ("snapshot", [f"{FIX}/snapshot_bad.hh"],
     [f"{FIX}/snapshot_ok.hh"], 3),
    ("errors", [f"{FIX}/errors_bad.cc"],
     [f"{FIX}/errors_ok.cc"], 5),
    ("layering", f"{FIX}/layering_bad", f"{FIX}/layering_ok", 4),
    ("fault-coverage", f"{FIX}/fault_bad", f"{FIX}/fault_ok", 2),
    ("includes", [f"{FIX}/includes_bad.hh", f"{FIX}/includes_bad.cc"],
     [f"{FIX}/includes_ok.hh", f"{FIX}/includes_ok.cc"], 3),
    ("style", [f"{FIX}/style_bad.cc"], [f"{FIX}/style_ok.cc"], 4),
]

# Directory-scope plants: check -> (directories it must cover, file
# name, violating content). The directories are spelled out here, not
# read from the checks' *SCOPE tuples, so narrowing a tuple fails this
# pass instead of narrowing it too.
TOP_DIRS = ("bench", "examples", "perfbench", "src", "tests", "tools")
SCOPE_PLANTS = {
    "errors": (("src", "tools"), "plant.cc",
               "void check(int x) { assert(x); }\n"),
    "determinism": (("src", "tools"), "plant.cc",
                    "#include <random>\n"
                    "unsigned seed() { return std::random_device{}(); }\n"),
    "snapshot": (("src", "tools"), "plant.hh",
                 "#pragma once\n"
                 "namespace snap { class Writer; class Reader; }\n"
                 "struct Plant {\n"
                 "  void save(snap::Writer& w) const { (void)w; }\n"
                 "  void restore(snap::Reader& r) { (void)r; }\n"
                 "  unsigned long dropped_ = 0;\n"
                 "};\n"),
    "includes": (TOP_DIRS, "plant.hh", "int no_pragma_once();\n"),
    "style": (TOP_DIRS, "plant.cc", "int trailing_space(); \n"),
}


def _context(target, use_ast):
    # Imported here to dodge the analyze.py <-> selftest import knot.
    from .analyze import make_context
    if isinstance(target, list):
        return make_context(ROOT, target, os.path.join(ROOT, "build"),
                            use_ast)
    return make_context(os.path.join(ROOT, target), [],
                        os.path.join(ROOT, "build"), use_ast)


def _run(check, target, use_ast):
    from .analyze import run_checks
    return run_checks(_context(target, use_ast), {check})


def _backend_pass(use_ast, label):
    failures = []
    for check, bad, ok, floor in CASES:
        got = _run(check, bad, use_ast)
        wrong = [f for f in got if f.check != check]
        if len(got) < floor:
            failures.append(
                f"[{label}] {check}: expected >= {floor} findings on "
                f"its sabotage fixture, got {len(got)} — the checker "
                "has gone blind")
        if wrong:
            failures.append(
                f"[{label}] {check}: fixture raised a foreign check "
                f"id: {wrong[0]}")
        clean = _run(check, ok, use_ast)
        if clean:
            failures.append(
                f"[{label}] {check}: the ok/suppressed fixture still "
                f"raised: {clean[0]} — suppressions are broken")
    return failures


def _scope_pass():
    """Plants every SCOPE_PLANTS violation in a scratch git tree and
    scans it in tree mode; each plant must be reported."""
    from .analyze import make_context, run_checks
    failures = []
    with tempfile.TemporaryDirectory() as tree:
        plants = []
        for check, (dirs, name, content) in SCOPE_PLANTS.items():
            for d in dirs:
                path = f"{d}/{check}/{name}"
                os.makedirs(os.path.join(tree, d, check), exist_ok=True)
                with open(os.path.join(tree, path), "w",
                          encoding="utf-8") as f:
                    f.write(content)
                plants.append((check, path))
        for cmd in (["git", "init", "-q"], ["git", "add", "-A"]):
            subprocess.run(cmd, cwd=tree, check=True)
        ctx = make_context(tree, [], os.path.join(tree, "build"), False)
        reported = {(f.check, f.path)
                    for f in run_checks(ctx, set(SCOPE_PLANTS))}
        for check, path in plants:
            if (check, path) not in reported:
                failures.append(
                    f"[scope] {check}: a violation planted in {path} "
                    "went unreported — the check's directory scope "
                    "no longer covers it")
    return failures, len(plants)


def run(backend):
    failures, plants = _scope_pass()
    failures += _backend_pass(False, "text")
    ran = ["text"]
    if backend != "text":
        if astlib.available():
            failures += _backend_pass(True, "ast")
            ran.append("ast")
        elif backend == "ast":
            print("analyze --self-test: --backend ast but libclang is "
                  f"unavailable: {astlib.load_error()}",
                  file=sys.stderr)
            return 2
        else:
            print("analyze --self-test: NOTE: libclang unavailable "
                  f"({astlib.load_error()}); AST pass skipped",
                  file=sys.stderr)
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    verdict = "FAIL" if failures else "PASS"
    print(f"analyze --self-test: {verdict} "
          f"({len(CASES)} checkers x {{{', '.join(ran)}}} backends, "
          f"{plants} scope plants)",
          file=sys.stderr)
    return 1 if failures else 0
