#!/usr/bin/env python3
"""Report library functions that no program keeps: code only tests call.

  python3 tools/test_only_report.py --build DIR [--cxx C++] [--nm NM]

Builds the library and every non-test binary (tools, examples, bench
programs and nscs_bench) into DIR with one section per function and
links them with --gc-sections, so a binary keeps exactly the library
functions it can reach.  A function that libnscs.a defines and no
binary defines is reachable only from tests.  The report fails on any
such function not on ALLOWLIST, and on any ALLOWLIST entry that
libnscs.a no longer defines or that a binary keeps, so the list cannot
go stale.  It prints demangled names with their object file.

Inlining and GCC's inter-procedural clones would hide a call made
within one file, so the build turns them off.  -fkeep-inline-functions
emits every inline function a file sees, so code defined in a header
reaches libnscs.a too, as weak (W) symbols beside the .cc definitions'
strong (T) ones.  A weak destructor or default, copy or move
constructor is skipped by rule: those are the members a compiler
generates, emitted wherever a program builds, copies or drops the
type, so they are no API of their own.  A weak constructor with other
parameters is still reported.  Those flags are GCC's: under another
compiler the report exits SKIP (77) rather than print a different
list.

Registered as the ctest `report.test_only` (label `report`).
"""

import argparse
import os
import re
import subprocess
import sys

SKIP = 77
FLAGS = ("-ffunction-sections -fkeep-inline-functions -fno-inline "
         "-fno-ipa-cp -fno-ipa-sra -fno-ipa-icf")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BIN_DIRS = ["tools", "examples", "bench"]
# The mangled name of a function, or a member, in namespace nscs.
NSCS = re.compile(r"_ZN[KVRO]*4nscs")

# Demangled name, or class prefix ending in "::", -> why a library
# function that no program calls stays.
ALLOWLIST = {
    "nscs::DenseSim::":
        "dense reference simulator the baseline tests compare against",
    "nscs::DenseCounters::":
        "DenseSim's counters",
    "nscs::ReferenceSim::run(unsigned long)":
        "whole-run form of the reference the tests compare against",
    "nscs::encodeRate(double, unsigned int)":
        "spike-list reference for encodeRateMasks' SIMD kernels",
    "nscs::simd::setActiveLevel(nscs::simd::Level)":
        "pins one SIMD level so tests sweep every level in one process",
    "nscs::simd::availableLevels()":
        "the SIMD levels this host runs, for the same sweeps",
    # Move constructors: tests return devices by value.  Chip and
    # Board define theirs out of line (their members' types are
    # incomplete in the header), so they are strong symbols.
    "nscs::Chip::Chip(nscs::Chip&&)": "move; tests return chips",
    "nscs::Board::Board(nscs::Board&&)": "move; tests return boards",
    # Header members a test reads state through that no other API
    # shows.
    "nscs::Core::lanePool() const":
        "Chip.IdenticalCoresCountEachPooledLaneOnce checks every core "
        "shares one pool",
    "nscs::SpikingClassifier::lastStats() const":
        "one pass's exact spike tallies for "
        "Classifier.ReadoutTiesToLowestClassAndSilentLaneToZero and "
        "RateCodeSource.PassMatchesStableSortedSchedule",
}


def die(msg, code=1):
    print("test_only_report: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("failed: " + " ".join(cmd))


def is_gcc(cxx):
    """True when cxx is GCC proper, not clang or another compiler that
    defines __GNUC__ for compatibility."""
    out = subprocess.run([cxx, "-dM", "-E", "-x", "c++", os.devnull],
                         capture_output=True, text=True)
    if out.returncode:
        die("cannot run the compiler: " + cxx)
    macros = {line.split()[1] for line in out.stdout.splitlines()
              if line.startswith("#define ")}
    return "__GNUC__" in macros and not macros & {
        "__clang__", "__INTEL_COMPILER", "__INTEL_LLVM_COMPILER"}


def defined(nm, path):
    """Global function symbols path defines: mangled name -> (object,
    kind), kind "T" (strong) or "W" (weak)."""
    out = subprocess.run([nm, "--defined-only", "-A", path],
                         capture_output=True, text=True)
    if out.returncode:
        die("nm failed on " + path + ":\n" + out.stderr)
    syms = {}
    for line in out.stdout.splitlines():
        # "archive:object:address T name", or "binary:address T name"
        parts = line.split()
        if len(parts) == 3 and parts[1] in ("T", "W"):
            where = parts[0].rsplit(":", 1)[0]
            syms[parts[2]] = (where.rpartition(":")[2], parts[1])
    return syms


def generated(name):
    """True when demangled name is a destructor or a default, copy or
    move constructor: the members a compiler generates."""
    head, _, args = name.partition("(")
    owner, _, fn = head.rpartition("::")
    cls = re.sub(r"<.*>", "", owner.rpartition("::")[2])
    if fn == "~" + cls:
        return True
    return fn == cls and args[:-1] in ("", owner + " const&", owner + "&&")


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True)
    if out.returncode:
        die("c++filt failed")
    return dict(zip(names, out.stdout.splitlines()))


def build(args):
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure every time, so a tree built under older FLAGS picks up
    # the current ones.
    run(["cmake", "-S", ROOT, "-B", args.build,
         "-DCMAKE_CXX_COMPILER=" + args.cxx,
         "-DCMAKE_BUILD_TYPE=",
         "-DCMAKE_CXX_FLAGS=" + FLAGS,
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
         "-DNSCS_BUILD_TESTS=OFF"])
    run(["cmake", "--build", args.build, "-j", jobs])
    lib = os.path.join(args.build, "src", "libnscs.a")
    # nscs_bench is a package of its own over the library: compile its
    # one source against this build's archive.
    bench = os.path.join(args.build, "nscs_bench")
    run([args.cxx, "-std=c++20", "-O2", *FLAGS.split(),
         "-I", os.path.join(ROOT, "src"), "-I", ROOT,
         os.path.join(ROOT, "nscs_bench", "nscs_bench.cc"), lib,
         "-pthread", "-Wl,--gc-sections", "-o", bench])
    binaries = [bench]
    for d in BIN_DIRS:
        found = [os.path.join(args.build, d, f)
                 for f in sorted(os.listdir(os.path.join(args.build, d)))]
        found = [f for f in found
                 if os.path.isfile(f) and os.access(f, os.X_OK)]
        if not found:
            die("no binaries under " + os.path.join(args.build, d))
        binaries += found
    return lib, binaries


def main():
    ap = argparse.ArgumentParser(prog="test_only_report.py")
    ap.add_argument("--build", required=True,
                    help="the report's own build directory")
    ap.add_argument("--cxx", default=os.environ.get("CXX", "c++"))
    ap.add_argument("--nm", default="nm")
    args = ap.parse_args()

    if not is_gcc(args.cxx):
        print("test_only_report: SKIP: " + args.cxx + " is not GCC; "
              "the report's no-inlining flags are GCC's")
        return SKIP
    lib, binaries = build(args)

    in_lib = defined(args.nm, lib)
    kept = set()
    for b in binaries:
        kept |= defined(args.nm, b).keys()
    # Project functions only: a std:: instantiation is dropped exactly
    # when the nscs:: function that needs it is.
    in_lib = {m: ok for m, ok in in_lib.items() if NSCS.match(m)}
    names = demangle(sorted(in_lib))
    # A name is kept when any of its symbols is (constructors and
    # destructors have several that demangle alike).
    all_names = set(names.values())
    kept_names = {names[m] for m in in_lib if m in kept}
    strong = {names[m] for m, (_, kind) in in_lib.items() if kind == "T"}
    skipped = {n for n in all_names - strong - kept_names if generated(n)}
    unkept = {names[m]: o for m, (o, _) in in_lib.items()
              if names[m] not in kept_names | skipped}

    print("%d binaries keep %d of libnscs.a's %d nscs:: functions; "
          "%d weak generated members skipped" % (
              len(binaries), len(kept_names), len(all_names),
              len(skipped)))

    def entry(name):
        """The allowlist entry that covers name, or None."""
        for e in ALLOWLIST:
            if name == e or e.endswith("::") and name.startswith(e):
                return e
        return None

    problems = []
    for name in sorted(unkept):
        e = entry(name)
        if e:
            print("allowed: %s  [%s] (%s)" % (name, unkept[name],
                                              ALLOWLIST[e]))
        else:
            problems.append("test-only: %s  [%s]" % (name, unkept[name]))
    for e in sorted(ALLOWLIST):
        if not any(entry(n) == e for n in all_names):
            problems.append("allowlisted but not in libnscs.a: " + e)
        for n in sorted(kept_names):
            if entry(n) == e:
                problems.append("allowlisted but a program keeps it: %s"
                                % n)
    for p in problems:
        print(p)
    print("test-only report: %s (%d allowed, %d problems)" % (
        "FAILED" if problems else "ok", len(ALLOWLIST), len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
