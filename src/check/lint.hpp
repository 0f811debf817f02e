#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace qcongest::check {

/// qlint — repo-specific static checks the general-purpose tools cannot
/// express, built on the token stream of check/token.hpp (v2: the old
/// line-regex engine lied about strings, raw strings, multi-line
/// constructs, and preprocessor continuations; the lexer does not).
///
/// Twelve rules, each guarding a determinism, accounting, or
/// service-safety contract of the reproduction (see DESIGN.md
/// "Invariants & static analysis"):
///
///   banned-random      rand()/srand()/std::random_device/time(NULL) outside
///                      src/util — all randomness must flow through the
///                      seeded util::Rng or runs are not reproducible.
///   raw-thread         std::thread / std::jthread / std::async / .detach()
///                      outside src/util/thread_pool — ad-hoc threads bypass
///                      the pool's shard scheduling and exception discipline,
///                      the two things the deterministic parallel engine
///                      relies on.
///   unordered-iter     iteration over a std::unordered_{map,set} (range-for
///                      or .begin()): the visit order is implementation-
///                      defined, so anything it feeds — protocol messages,
///                      samples, accumulated floats — silently varies across
///                      standard libraries. Container names are resolved
///                      through a cross-TU symbol index built from #include
///                      edges, not the old "foo.cpp pairs with foo.hpp"
///                      guess.
///   float-equal        == / != against a floating-point literal inside
///                      src/quantum or src/query; amplitudes carry rounding
///                      error, compare within a tolerance.
///   runresult-discard  a statement in src/framework that calls a phase
///                      returning RunResult (or a *Result carrying .cost)
///                      and drops the value — rounds vanish from the
///                      accounting, the exact failure mode "Mind the O-tilde"
///                      warns about.
///   unsnapshotted-state  a NodeProgram that declares recoverability by
///                      overriding snapshot() but has a mutable data member
///                      (trailing-underscore, non-pointer, non-const) that
///                      neither snapshot() nor restore() mentions: after an
///                      amnesia restart that member silently reverts to its
///                      constructed value and the node replays from a state
///                      that never existed (see DESIGN.md "Recovery model").
///
/// The concurrency & wire-safety pack, aimed at the src/serve layer (a
/// single-threaded poll() reactor over a shared util::ThreadPool fed by an
/// untrusted length-prefixed wire protocol):
///
///   reactor-blocking-call  a blocking call in the reactor translation
///                      units (src/serve/server.*, tools/qcongestd): sleeps,
///                      .wait()/.join(), parallel_for, blocking stdio. The
///                      reactor thread owns every socket; one blocking call
///                      stalls every connection.
///   lock-across-submit a std::lock_guard/unique_lock/scoped_lock scope
///                      that reaches a .submit() hand-off (the pool or the
///                      service) or a condition-variable wait taking a
///                      different lock. The callback/wait can need the held
///                      mutex — instant deadlock under load, invisible at
///                      low concurrency.
///   untrusted-narrowing  a value parsed from the wire (get_u16/get_u32,
///                      parse_u64/parse_size out-params, JobSpec payload
///                      fields) flows into a narrowing cast, a narrower
///                      declaration, or arithmetic before any bound check
///                      (<, <=, >, >=, std::min/clamp). Attacker-chosen
///                      lengths must be range-checked before they size or
///                      index anything. Re-parsing a variable re-taints it.
///   catch-all-swallow  a `catch (...)` that neither rethrows (throw;,
///                      std::current_exception) nor produces a structured
///                      error (set_label/set_outcome, an *error* sink,
///                      stderr). Swallowed exceptions erase failures from
///                      the accounting; designated isolation boundaries
///                      carry an explicit qlint-allow with a reason.
///   hot-path-alloc     a heap allocation (new, unreserved push_back,
///                      std::function, make_unique/make_shared/malloc) in
///                      the Engine round loop, Statevector::apply*, or the
///                      SIMD kernels — the measured hot paths must not
///                      allocate per round.
///   unchecked-io-result  a statement-level `write`/`pwrite`/`fsync`/
///                      `fdatasync`/`rename`/`ftruncate` (bare or
///                      ::-qualified POSIX spelling, including the
///                      `(void)` cast form) whose return value is dropped
///                      in src/serve or src/cache. Those return values are
///                      the only place ENOSPC/EIO surface; the durability
///                      layer must check them and degrade explicitly.
///
/// Suppression must name its reason: append
///   `// qlint-allow(rule): reason` to the flagged line (a bare
/// `qlint-allow(rule)` with no reason does not suppress), or list
///   `rule:path-substring[:line-substring]  # reason`
/// in an allowlist file (entries without a trailing `# reason` are a
/// configuration error).

struct LintDiagnostic {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
  std::string line_text;  // the offending source line, for allowlist needles

  std::string to_string() const {
    return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
  }
};

struct LintConfig {
  /// Entries "rule:path-substring" (allow everywhere in matching files) or
  /// "rule:path-substring:line-substring" (allow only on matching lines).
  /// "*" matches any rule or any path.
  std::vector<std::string> allow;
};

/// One entry per rule: the id diagnostics carry and a one-line summary.
/// The single source of truth behind `qlint --list-rules` and the SARIF
/// rule metadata, so the help text cannot drift from the engine.
struct RuleInfo {
  const char* id;
  const char* summary;
};
const std::vector<RuleInfo>& rule_infos();

/// Identifiers declared as std::unordered_{map,set} in `content` (token
/// pass, multi-line declarations included). Exposed so the symbol index
/// can feed included headers' member names into every including TU.
std::vector<std::string> collect_unordered_names(const std::string& content);

/// Targets of quoted #include directives in `content` ("src/net/graph.hpp"
/// style), in order of appearance. Angle-bracket includes are external and
/// skipped.
std::vector<std::string> collect_includes(const std::string& content);

/// Cross-TU name resolution: which unordered-container identifiers are in
/// scope for a file, following the quoted-#include graph transitively over
/// every file the index has seen. Replaces the old heuristic of pairing
/// foo.cpp with a sibling foo.hpp — a member declared in any included
/// header is now visible in every TU that includes it.
class SymbolIndex {
 public:
  void add_file(const std::string& path, const std::string& content);

  /// Unordered-container names visible in `path`: its own plus those of
  /// all transitively included indexed files. Sorted, unique.
  std::vector<std::string> unordered_names_for(const std::string& path) const;

 private:
  struct Entry {
    std::vector<std::string> names;
    std::vector<std::string> includes;
  };
  /// Indexed path whose generic form equals `include` or ends with
  /// "/<include>"; empty if none.
  const std::string* resolve(const std::string& include) const;

  std::map<std::string, Entry> files_;
};

/// Lint one translation unit. `extra_unordered_names` augments the names
/// found in `content` itself (pass the symbol index's view for the file).
std::vector<LintDiagnostic> lint_source(
    const std::string& path, const std::string& content, const LintConfig& config = {},
    const std::vector<std::string>& extra_unordered_names = {});

struct LintResult {
  std::vector<LintDiagnostic> diagnostics;
  std::size_t files_scanned = 0;
};

/// Recursively lint every .cpp/.hpp under each root (skipping build/
/// directories), sharing one cross-TU symbol index across all roots so a
/// tests/ or tools/ TU sees the unordered members of the src/ headers it
/// includes. Results are sorted by (file, line).
LintResult lint_trees(const std::vector<std::string>& roots,
                      const LintConfig& config = {});

/// Parse an allowlist file: one `rule:path[:needle]  # reason` entry per
/// line, '#' at line start comments the whole line. An entry without a
/// trailing reason comment throws std::invalid_argument — every
/// suppression is a debt note and must say why it exists.
LintConfig load_allowlist(const std::string& path);

// SARIF 2.1.0 rendering of diagnostics lives in check/sarif.hpp.

}  // namespace qcongest::check
