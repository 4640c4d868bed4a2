#!/usr/bin/env python3
"""List the library functions that no shipped binary keeps.

The shipped binaries are canonsim, canond, canonctl, every
bench/bench_*.cc main and every examples/ program. This script builds
them, and the test binaries, at -O0 with -ffunction-sections
-fdata-sections and links them with -Wl,--gc-sections, so the linker
drops every function that nothing reachable from a main() references.
-O0 keeps the compiler from inlining a call away and hiding its
callee.

Two kinds of function are *unreached*: only tests call them, or
nothing does.

 - A strong function (nm type T) defined in one of the static
   libraries (libcanon*.a) that no shipped binary keeps. It is
   reported by its demangled signature.
 - A header-only canon:: function (an inline function or a template,
   nm type W) that a test binary keeps and no shipped binary keeps.
   Functions are compared by name, with template arguments,
   parameters and return types stripped, so one instantiation a
   shipped binary keeps reaches them all. Constructors and
   destructors are skipped, and so are the functions the test
   sources define themselves: those of each test's own translation
   unit and of the headers under tests/. It is reported by that name,
   e.g. "canon::Pe::mode".

Each one must either be deleted (or moved into its tests) or be named
in the allowlist with the reason it stays, a test seam or a reference
implementation. An allowlist entry that is no longer unreached is
stale and fails the check too.

The allowlist is ci/unreached_allow.txt: one demangled signature or
function name per line, then " # " and the reason. Blank lines and
lines starting with "#" are comments. The build goes to
build-unreached/ and is incremental on a rerun.

Exit code 0 when every unreached function is allowlisted, 1 with the
list otherwise, 2 when the build fails.

Usage: python3 scripts/unreached.py
"""

import glob
import os
import re
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


def test_binaries():
    """The CTest executables, one per tests/*_test.cc."""
    return [os.path.splitext(os.path.basename(src))[0]
            for src in sorted(glob.glob(os.path.join(ROOT, "tests",
                                                     "*_test.cc")))]


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


# Operator names that contain "<", ">" or "(", protected from the
# template-argument and parameter stripping below.
OPERATOR = re.compile(r"operator(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>|\(\))")
TEMPLATE_ARGS = re.compile(r"<[^<>]*>")
ABI_TAG = re.compile(r"\[abi:[^\]]*\]")
CANON_MANGLED = re.compile(r"_ZZ?N[KVRO]*5canon")


def function_name(demangled):
    """@p demangled without template arguments, parameters or return
    type: "void canon::Foo<int>::bar<F>(F&&) const" is
    "canon::Foo::bar"."""
    ops = []

    def protect(m):
        ops.append(m.group(0))
        return f"operator@{len(ops) - 1}@"

    text = ABI_TAG.sub("", demangled)
    text = text.replace("(anonymous namespace)", "{anon}")
    text = OPERATOR.sub(protect, text)
    while True:
        stripped = TEMPLATE_ARGS.sub("", text)
        if stripped == text:
            break
        text = stripped
    name = text.split("(", 1)[0].strip().split(" ")[-1]
    return re.sub(r"operator@(\d+)@", lambda m: ops[int(m.group(1))], name)


def is_structor(name):
    """True for a constructor or destructor name (or one nested in)."""
    parts = name.split("::")
    return any(parts[i].startswith("~") or
               (i > 0 and parts[i] == parts[i - 1])
               for i in range(len(parts)))


def test_header_functions():
    """Names of the functions the headers under tests/ define."""
    names = set()
    for path in glob.glob(os.path.join(ROOT, "tests", "*.hh")):
        with open(path) as f:
            for line in f:
                m = re.match(r"([A-Za-z_]\w*)\(", line)
                if m:
                    names.add(m.group(1))
    return names


def header_only_unreached(shipped, tests, lib_defined):
    """Names of the header-only canon:: functions only tests keep."""
    shipped_names = set()
    for name in shipped:
        path = os.path.join(BUILD_DIR, name)
        shipped_names |= {function_name(d) for d in demangle(
            defined_symbols(path, {"T", "t", "W", "w"})).values()}

    kept = set()
    for name in tests:
        own = defined_symbols(
            os.path.join(BUILD_DIR, "CMakeFiles", f"{name}.dir", "tests",
                         f"{name}.cc.o"), {"T", "t"})
        kept |= defined_symbols(os.path.join(BUILD_DIR, name),
                                {"T", "t", "W", "w"}) - own
    kept -= lib_defined

    # canon:: functions, and lambdas or locals inside them; not std::
    # templates instantiated over canon types.
    kept = {m for m in kept if CANON_MANGLED.match(m)}
    test_helpers = test_header_functions()
    found = set()
    for demangled in demangle(kept).values():
        name = function_name(demangled)
        if (name.startswith("canon::") and not is_structor(name)
                and name.split("::")[-1] not in test_helpers
                and name not in shipped_names):
            found.add(name)
    return sorted(found)


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
    tests = test_binaries()
    build(binaries + tests)

    libs = sorted(glob.glob(os.path.join(BUILD_DIR, "libcanon*.a")))
    defined = set()
    lib_defined = set()
    for lib in libs:
        defined |= defined_symbols(lib, {"T"})
        lib_defined |= defined_symbols(lib, {"T", "t"})
    kept = set()
    for name in binaries:
        kept |= defined_symbols(os.path.join(BUILD_DIR, name),
                                {"T", "t", "W", "w"})

    # Constructor and destructor variants share one demangled name; a
    # function is reached when any of its variants is kept.
    names = demangle(defined)
    reached = {names[m] for m in defined & kept}
    unreached = sorted({names[m] for m in defined - kept} - reached)
    header_only = header_only_unreached(binaries, tests, lib_defined)

    allowed = read_allowlist(ALLOWLIST)
    missing = [s for s in unreached + header_only if s not in allowed]
    stale = sorted(set(allowed) - set(unreached) - set(header_only))

    print(f"unreached: {len(defined)} strong library symbols, "
          f"{len(binaries)} binaries, {len(tests)} test binaries, "
          f"{len(unreached)} unreached and {len(header_only)} "
          f"header-only unreached "
          f"({len(unreached) + len(header_only) - len(missing)} "
          f"allowlisted)")
    for s in missing:
        print(f"  unreached: {s}")
    for s in stale:
        print(f"  stale allowlist entry: {s}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
