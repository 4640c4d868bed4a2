#!/usr/bin/env python3
"""List the library functions that no shipped binary keeps.

The shipped binaries are canonsim, canond, canonctl, every
bench/bench_*.cc main and every examples/ program. This script builds
them at -O0 with -ffunction-sections -fdata-sections and links them
with -Wl,--gc-sections, so the linker drops every function that
nothing reachable from a main() references. -O0 keeps the compiler
from inlining a call away and hiding its callee.

A strong function (nm type T) defined in one of the static libraries
(libcanon*.a) that no binary keeps is *unreached*: only tests call
it, or nothing does. Each one must either be deleted (or moved into
its tests) or be named in the allowlist with the reason it stays, a
test seam or a reference implementation. An allowlist entry that is
no longer unreached is stale and fails the check too.

Header-only helpers (inline functions and templates, nm type W) are
invisible to this check: grep for their callers instead.

The allowlist is ci/unreached_allow.txt: one demangled signature per
line, then " # " and the reason. Blank lines and lines starting with
"#" are comments. The build goes to build-unreached/ and is
incremental on a rerun.

Exit code 0 when every unreached function is allowlisted, 1 with the
list otherwise, 2 when the build fails.

Usage: python3 scripts/unreached.py
"""

import glob
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, "build-unreached")
ALLOWLIST = os.path.join(ROOT, "ci", "unreached_allow.txt")


def shipped_binaries():
    """The executable targets CMakeLists.txt builds outside tests."""
    names = ["canonsim", "canond", "canonctl"]
    for src in sorted(glob.glob(os.path.join(ROOT, "bench", "bench_*.cc"))):
        stem = os.path.splitext(os.path.basename(src))[0]
        if stem != "bench_util":
            names.append(stem)
    for pattern in ("*.cpp", "*.cc"):
        for src in sorted(glob.glob(os.path.join(ROOT, "examples", pattern))):
            names.append(
                "example_" + os.path.splitext(os.path.basename(src))[0])
    return names


def build(targets):
    configure = [
        "cmake", "-B", BUILD_DIR, "-S", ROOT,
        "-DCMAKE_BUILD_TYPE=Debug",
        "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
        "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
    ]
    compile_ = ["cmake", "--build", BUILD_DIR, "-j",
                str(os.cpu_count() or 1), "--target"] + targets
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode:
            print("unreached: FAIL: " + " ".join(cmd[:3]) + " failed",
                  file=sys.stderr)
            sys.exit(2)


def defined_symbols(path, types):
    """Mangled names of the symbols of nm type in @p types."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    syms = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in types:
            syms.add(parts[2])
    return syms


def demangle(names):
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def read_allowlist(path):
    allowed = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            symbol, sep, reason = line.partition(" # ")
            if not sep or not reason.strip():
                print(f"unreached: FAIL: {path}:{lineno}: entry has no "
                      "' # reason'", file=sys.stderr)
                sys.exit(1)
            allowed[symbol.strip()] = reason.strip()
    return allowed


def main():
    binaries = shipped_binaries()
    build(binaries)

    libs = sorted(glob.glob(os.path.join(BUILD_DIR, "libcanon*.a")))
    defined = set()
    for lib in libs:
        defined |= defined_symbols(lib, {"T"})
    kept = set()
    for name in binaries:
        kept |= defined_symbols(os.path.join(BUILD_DIR, name),
                                {"T", "t", "W", "w"})

    # Constructor and destructor variants share one demangled name; a
    # function is reached when any of its variants is kept.
    names = demangle(defined)
    reached = {names[m] for m in defined & kept}
    unreached = sorted({names[m] for m in defined - kept} - reached)

    allowed = read_allowlist(ALLOWLIST)
    missing = [s for s in unreached if s not in allowed]
    stale = sorted(set(allowed) - set(unreached))

    print(f"unreached: {len(defined)} strong library symbols, "
          f"{len(binaries)} binaries, {len(unreached)} unreached "
          f"({len(unreached) - len(missing)} allowlisted)")
    for s in missing:
        print(f"  unreached: {s}")
    for s in stale:
        print(f"  stale allowlist entry: {s}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
