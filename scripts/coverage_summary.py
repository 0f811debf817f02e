#!/usr/bin/env python3
"""Line coverage of src/ and tools/ from a --coverage build, per directory.

Reads `gcov --json-format --stdout` for every object of the qcongest library
and of the tools, plus every test, bench and example object that ran, keeps
only the lines and functions of src/ and tools/ files, and merges them
across translation units: a header line or an inline function counts as
executed if any object executed it. (The linker keeps one copy of each
inline function, often a test object's, so the library's own copy of a
function the library calls can read zero.) It prints:

  - a markdown table of covered / total lines per directory of src/, one
    row for tools/, and the src/ total;
  - every function nothing executed, as `path:line name`.

Gate: with --baseline FILE, exit 1 when src/ line coverage is more than
MARGIN (0.5) points below the baseline's; the margin absorbs line-table
differences between gcc versions. --write-baseline FILE records the
current numbers in the same format.

Usage: scripts/coverage_summary.py BUILD_DIR [--baseline FILE]
                                   [--write-baseline FILE]
Run it after the workload (scripts/coverage_lane.sh) has written the .gcda
files; stdlib only, since gcovr and lcov are not assumed.
"""

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
MARGIN = 0.5


def coverage_files(build_dir):
    """Library and tool objects by their .gcno (an object nothing ran still
    counts toward the totals); every other object by its .gcda, if it ran."""
    subjects = (os.path.join(build_dir, "src", "CMakeFiles", "qcongest.dir"),
                os.path.join(build_dir, "tools", "CMakeFiles"))
    found = []
    for dirpath, _, names in os.walk(build_dir):
        ext = ".gcno" if dirpath.startswith(subjects) else ".gcda"
        found.extend(os.path.join(dirpath, n) for n in names if n.endswith(ext))
    return sorted(found)


def subject(path, cwd):
    """Repo-relative path of a src/ or tools/ file, else None."""
    full = os.path.normpath(os.path.join(cwd, path))
    rel = os.path.relpath(full, REPO)
    top = rel.split(os.sep, 1)[0]
    return rel.replace(os.sep, "/") if top in ("src", "tools") else None


def collect(build_dir):
    """Per file: {line: executed?} and {start_line: (name, executed?)}."""
    lines, functions = {}, {}
    files = coverage_files(build_dir)
    if not any(f.endswith(".gcda") for f in files):
        sys.exit(f"coverage_summary: no .gcda files under {build_dir} (run the workload first)")
    for start in range(0, len(files), 64):
        # stderr carries "assuming not executed" for objects that never ran.
        out = subprocess.run(["gcov", "--json-format", "--stdout", *files[start:start + 64]],
                             cwd=build_dir, check=True, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
        for doc in filter(None, (line.strip() for line in out.splitlines())):
            data = json.loads(doc)
            cwd = data.get("current_working_directory", build_dir)
            for entry in data["files"]:
                rel = subject(entry["file"], cwd)
                if rel is None:
                    continue
                file_lines = lines.setdefault(rel, {})
                for line in entry["lines"]:
                    n = line["line_number"]
                    file_lines[n] = file_lines.get(n, False) or line["count"] > 0
                file_funcs = functions.setdefault(rel, {})
                for fn in entry["functions"]:
                    n = fn["start_line"]
                    ran = fn["execution_count"] > 0
                    name, seen = file_funcs.get(n, (readable(fn["demangled_name"]), False))
                    file_funcs[n] = (name, seen or ran)
    return lines, functions


def readable(name):
    """A demangled name with the std::string spellings shortened."""
    for long, short in (("std::__cxx11::basic_string<char, std::char_traits<char>, "
                         "std::allocator<char> >", "std::string"),
                        ("std::basic_string_view<char, std::char_traits<char> >",
                         "std::string_view"),
                        ("[abi:cxx11]", "")):
        name = name.replace(long, short)
    return name


def directory(rel):
    parts = rel.split("/")
    return "/".join(parts[:2]) if parts[0] == "src" and len(parts) > 2 else parts[0]


def summarize(lines):
    dirs = {}
    for rel, file_lines in lines.items():
        row = dirs.setdefault(directory(rel), {"covered": 0, "total": 0})
        row["total"] += len(file_lines)
        row["covered"] += sum(file_lines.values())
    src = {"covered": 0, "total": 0}
    for name, row in dirs.items():
        if name.startswith("src/"):
            src["covered"] += row["covered"]
            src["total"] += row["total"]
    return dict(sorted(dirs.items())), src


def percent(row):
    return 100.0 * row["covered"] / row["total"] if row["total"] else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("build_dir")
    parser.add_argument("--baseline")
    parser.add_argument("--write-baseline")
    args = parser.parse_args()

    lines, functions = collect(os.path.abspath(args.build_dir))
    dirs, src = summarize(lines)

    print("| directory | covered | total | lines % |")
    print("|---|---:|---:|---:|")
    for name, row in dirs.items():
        print(f"| {name} | {row['covered']} | {row['total']} | {percent(row):.1f} |")
    print(f"| **src/** | **{src['covered']}** | **{src['total']}** | **{percent(src):.1f}** |")

    never = sorted((rel, n, name) for rel, fns in functions.items()
                   for n, (name, ran) in fns.items() if not ran)
    print(f"\nFunctions never executed ({len(never)}):")
    for rel, n, name in never:
        print(f"  {rel}:{n} {name}")

    if args.write_baseline:
        doc = {"tool": "gcov --json-format, gcc --coverage -O0 (scripts/coverage_lane.sh)",
               "src": dict(src, percent=round(percent(src), 2)),
               "dirs": {k: dict(v, percent=round(percent(v), 2)) for k, v in dirs.items()}}
        with open(args.write_baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")

    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)["src"]
        floor = percent(base) - MARGIN
        verdict = "ok" if percent(src) >= floor else "FAIL"
        print(f"\ncoverage gate: src/ {percent(src):.2f}% vs baseline {percent(base):.2f}% "
              f"(floor {floor:.2f}%): {verdict}")
        if verdict != "ok":
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
