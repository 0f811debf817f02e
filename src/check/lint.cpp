#include "src/check/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "src/check/token.hpp"

namespace qcongest::check {

namespace {

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

std::vector<std::string> split_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(content.substr(start));
      break;
    }
    lines.push_back(content.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// The shared per-file context rules run against: the code token stream
/// (preprocessor directives filtered out — directive bodies are not code),
/// the raw lines for diagnostics, and the sink.
struct RuleCtx {
  const std::string& path;
  const std::vector<Token>& code;
  const std::vector<std::string>& raw_lines;
  std::vector<LintDiagnostic>& out;

  const Token& tok(std::size_t i) const { return code[i]; }
  std::size_t size() const { return code.size(); }
  bool ident_at(std::size_t i, const char* text) const {
    return i < code.size() && is_ident(code[i], text);
  }
  bool punct_at(std::size_t i, const char* text) const {
    return i < code.size() && is_punct(code[i], text);
  }
  void flag(std::size_t line, const std::string& rule, std::string message) {
    std::string text = line >= 1 && line <= raw_lines.size()
                           ? raw_lines[line - 1]
                           : std::string();
    out.push_back({path, line, rule, std::move(message), std::move(text)});
  }
};

/// Index one past the '>' matching the '<' at `open` (which must be a '<'
/// token). Angle depth ignores everything nested in parentheses; '>>'
/// closes two levels. Returns npos when unbalanced.
std::size_t match_angle(const std::vector<Token>& code, std::size_t open) {
  int depth = 0;
  int parens = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "(") ++parens;
    if (t.text == ")" && parens > 0) --parens;
    if (parens > 0) continue;
    if (t.text == "<") ++depth;
    if (t.text == ">") --depth;
    if (t.text == ">>") depth -= 2;
    if (t.text == ";" || t.text == "{") return std::string::npos;  // gave up
    if (depth <= 0) return i + 1;
  }
  return std::string::npos;
}

/// Index one past the ')' matching the '(' at `open`.
std::size_t match_paren(const std::vector<Token>& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (is_punct(code[i], "(")) ++depth;
    if (is_punct(code[i], ")")) {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

std::vector<Token> code_tokens(const std::string& content) {
  std::vector<Token> code;
  for (Token& t : tokenize(content)) {
    if (t.kind != TokenKind::kDirective) code.push_back(std::move(t));
  }
  return code;
}

std::vector<std::string> collect_unordered_names_from(
    const std::vector<Token>& code) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (!(is_ident(code[i], "unordered_map") || is_ident(code[i], "unordered_set"))) {
      continue;
    }
    if (!is_punct(code[i + 1], "<")) continue;
    std::size_t after = match_angle(code, i + 1);
    if (after == std::string::npos) continue;
    if (after < code.size() && is_punct(code[after], "&")) ++after;  // ref params
    if (after < code.size() && code[after].kind == TokenKind::kIdentifier) {
      names.push_back(code[after].text);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

// --- Suppression ------------------------------------------------------------

enum class InlineAllow { kNone, kSuppressed, kMissingReason };

/// `// qlint-allow(rule): reason` on the raw line suppresses `rule` there.
/// A bare `qlint-allow(rule)` with no written reason matches but does not
/// suppress — every suppression is a debt note and must say why.
InlineAllow inline_allow(const std::string& raw_line, const std::string& rule) {
  InlineAllow found = InlineAllow::kNone;
  std::size_t at = 0;
  while ((at = raw_line.find("qlint-allow(", at)) != std::string::npos) {
    std::size_t open = at + std::string("qlint-allow(").size();
    std::size_t close = raw_line.find(')', open);
    at = open;
    if (close == std::string::npos) break;
    std::string listed = raw_line.substr(open, close - open);
    bool matches = false;
    std::istringstream parts(listed);
    std::string entry;
    while (std::getline(parts, entry, ',')) {
      entry.erase(std::remove_if(entry.begin(), entry.end(), ::isspace), entry.end());
      if (entry == rule || entry == "*") matches = true;
    }
    if (!matches) continue;
    std::size_t reason = close + 1;
    while (reason < raw_line.size() && raw_line[reason] == ' ') ++reason;
    bool has_reason = reason < raw_line.size() && raw_line[reason] == ':' &&
                      raw_line.find_first_not_of(" \t", reason + 1) != std::string::npos;
    if (has_reason) return InlineAllow::kSuppressed;
    found = InlineAllow::kMissingReason;
  }
  return found;
}

bool config_allowed(const LintConfig& config, const LintDiagnostic& diag) {
  for (const std::string& entry : config.allow) {
    std::size_t first = entry.find(':');
    if (first == std::string::npos) continue;
    std::string rule = entry.substr(0, first);
    std::string rest = entry.substr(first + 1);
    std::size_t second = rest.find(':');
    std::string path_sub = second == std::string::npos ? rest : rest.substr(0, second);
    std::string needle = second == std::string::npos ? "" : rest.substr(second + 1);
    if (rule != "*" && rule != diag.rule) continue;
    if (path_sub != "*" && diag.file.find(path_sub) == std::string::npos) continue;
    if (!needle.empty() && diag.line_text.find(needle) == std::string::npos) continue;
    return true;
  }
  return false;
}

// --- Rule: banned-random ----------------------------------------------------

void check_banned_random(RuleCtx& ctx) {
  // src/util is the one place allowed to touch entropy (it seeds util::Rng).
  if (path_contains(ctx.path, "src/util/") || path_contains(ctx.path, "util/rng")) {
    return;
  }
  auto flag = [&](std::size_t line, const std::string& what) {
    ctx.flag(line, "banned-random",
             what + ": all randomness must flow through the seeded util::Rng "
                   "(determinism contract; see DESIGN.md)");
  };
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const Token& t = ctx.tok(i);
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "random_device") {
      flag(t.line, "'std::random_device'");
    } else if (t.text == "rand" && ctx.punct_at(i + 1, "(")) {
      flag(t.line, "'rand()'");
    } else if (t.text == "srand") {
      flag(t.line, "'srand'");
    } else if (t.text == "time" && ctx.punct_at(i + 1, "(")) {
      bool null_seed = ctx.ident_at(i + 2, "NULL") || ctx.ident_at(i + 2, "nullptr") ||
                       (i + 2 < ctx.size() && ctx.tok(i + 2).kind == TokenKind::kNumber &&
                        ctx.tok(i + 2).text == "0");
      if (null_seed) flag(t.line, "'time(NULL)'-style seeding");
    }
  }
}

// --- Rule: raw-thread -------------------------------------------------------

void check_raw_thread(RuleCtx& ctx) {
  // The pool is the one blessed home for raw threads: it owns shard
  // determinism and exception propagation, so ad-hoc std::thread elsewhere
  // would bypass both.
  if (path_contains(ctx.path, "src/util/thread_pool")) return;
  auto flag = [&](std::size_t line, const std::string& what) {
    ctx.flag(line, "raw-thread",
             what + ": concurrency must go through util::ThreadPool, which "
                   "owns shard scheduling, exception propagation, and the "
                   "determinism contract (see DESIGN.md)");
  };
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (ctx.ident_at(i, "std") && ctx.punct_at(i + 1, "::") && i + 2 < ctx.size()) {
      const std::string& name = ctx.tok(i + 2).text;
      bool spawner = ctx.tok(i + 2).kind == TokenKind::kIdentifier &&
                     (name == "thread" || name == "jthread" || name == "async");
      // std::thread::id merely reads the id type; it spawns nothing.
      if (spawner && !ctx.punct_at(i + 3, "::")) {
        flag(ctx.tok(i).line, "'std::" + name + "'");
      }
    }
    if ((ctx.punct_at(i, ".") || ctx.punct_at(i, "->")) &&
        ctx.ident_at(i + 1, "detach") && ctx.punct_at(i + 2, "(")) {
      flag(ctx.tok(i + 1).line, "'.detach()'");
    }
  }
}

// --- Rule: unordered-iter ---------------------------------------------------

void check_unordered_iter(RuleCtx& ctx, const std::vector<std::string>& names) {
  if (names.empty()) return;
  auto is_known = [&](const Token& t) {
    return t.kind == TokenKind::kIdentifier &&
           std::binary_search(names.begin(), names.end(), t.text);
  };
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (!is_known(ctx.tok(i))) continue;
    bool hit = false;
    // Iterator walk: name.begin( / cbegin / rbegin.
    if (ctx.punct_at(i + 1, ".") && i + 2 < ctx.size() &&
        (ctx.ident_at(i + 2, "begin") || ctx.ident_at(i + 2, "cbegin") ||
         ctx.ident_at(i + 2, "rbegin")) &&
        ctx.punct_at(i + 3, "(")) {
      hit = true;
    }
    // Range-for: `for (decl : name)` — the ':' directly before the name,
    // inside a paren opened by `for`.
    if (!hit && i >= 1 && ctx.punct_at(i - 1, ":")) {
      int depth = 0;
      for (std::size_t j = i - 1; j-- > 0;) {
        const Token& t = ctx.tok(j);
        if (is_punct(t, ")")) ++depth;
        if (is_punct(t, "(")) {
          if (depth == 0) {
            hit = j > 0 && ctx.ident_at(j - 1, "for");
            break;
          }
          --depth;
        }
        if (is_punct(t, ";") || is_punct(t, "{")) break;
      }
    }
    if (hit) {
      ctx.flag(ctx.tok(i).line, "unordered-iter",
               "iteration over unordered container '" + ctx.tok(i).text +
                   "': visit order is implementation-defined and will differ "
                   "across standard libraries — sort first, or use "
                   "std::map/std::set/vector before the order can reach "
                   "messages, samples, or float sums");
    }
  }
}

// --- Rule: float-equal ------------------------------------------------------

void check_float_equal(RuleCtx& ctx) {
  if (!path_contains(ctx.path, "quantum/") && !path_contains(ctx.path, "query/")) {
    return;
  }
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    if (!(ctx.punct_at(i, "==") || ctx.punct_at(i, "!="))) continue;
    bool left = i > 0 && is_float_literal(ctx.tok(i - 1));
    std::size_t r = i + 1;
    if (ctx.punct_at(r, "+") || ctx.punct_at(r, "-")) ++r;  // unary sign
    bool right = r < ctx.size() && is_float_literal(ctx.tok(r));
    if (left || right) {
      ctx.flag(ctx.tok(i).line, "float-equal",
               "exact floating-point comparison against a literal in quantum "
               "code: amplitudes carry rounding error, compare within a "
               "tolerance (e.g. std::abs(x - y) <= 1e-9)");
    }
  }
}

// --- Rule: runresult-discard ------------------------------------------------

/// Framework phases whose return value carries round/word costs; discarding
/// one silently loses rounds from the accounting.
const char* kPhaseCalls[] = {
    "distribute_state",  "undistribute_state",     "distribute_state_unpipelined",
    "zero_reflection",   "amplification_iterate",  "pipelined_downcast",
    "unpipelined_downcast", "pipelined_convergecast", "elect_leader",
    "build_bfs_tree",    "multi_source_bfs",
};

void check_runresult_discard(RuleCtx& ctx) {
  if (!path_contains(ctx.path, "framework/")) return;
  bool at_start = true;  // start of file begins a statement
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const Token& t = ctx.tok(i);
    if (at_start && t.kind == TokenKind::kIdentifier) {
      // Unwind a namespace-qualified head: ns::...::name(.
      std::size_t j = i;
      while (j + 2 < ctx.size() && ctx.tok(j).kind == TokenKind::kIdentifier &&
             ctx.punct_at(j + 1, "::") &&
             ctx.tok(j + 2).kind == TokenKind::kIdentifier) {
        j += 2;
      }
      std::string which;
      for (const char* name : kPhaseCalls) {
        if (ctx.ident_at(j, name) && ctx.punct_at(j + 1, "(")) which = name;
      }
      // A bare `receiver.run(...)` / `receiver->run(...)` statement
      // discards the RunResult as well. Assignments, returns, and
      // accumulations never reach here: the statement would not *start*
      // with the receiver; "(void)" casts start with '('.
      if (which.empty() && j == i && ctx.tok(i).kind == TokenKind::kIdentifier &&
          (ctx.punct_at(i + 1, ".") || ctx.punct_at(i + 1, "->")) &&
          ctx.ident_at(i + 2, "run") && ctx.punct_at(i + 3, "(")) {
        which = "run";
      }
      if (!which.empty()) {
        ctx.flag(t.line, "runresult-discard",
                 "the RunResult (cost) of '" + which +
                     "' is discarded: rounds vanish from the complexity "
                     "accounting — accumulate it with += into the phase cost");
      }
    }
    at_start = t.kind == TokenKind::kPunct &&
               (t.text == ";" || t.text == "{" || t.text == "}" || t.text == ":");
  }
}

// --- Rule: unsnapshotted-state ----------------------------------------------

/// Whole-file pass: inside every class deriving from NodeProgram that
/// overrides snapshot() — the act that declares the program recoverable —
/// each mutable data member (trailing underscore, non-pointer, non-const,
/// non-static) must appear by name in the snapshot() or restore() body, or
/// an amnesia restart silently resets it to its constructed value.
void check_unsnapshotted_state(RuleCtx& ctx) {
  struct Member {
    std::size_t line = 0;
    std::string name;
  };
  struct ClassState {
    int base_depth = 0;  // brace depth just before the class's '{'
    bool overrides_snapshot = false;
    bool out_of_line = false;  // snapshot/restore declared but defined elsewhere
    bool delegates = false;    // snapshot forwards to a wrapped program
    std::set<std::string> coverage;  // idents inside snapshot()/restore() bodies
    std::vector<Member> members;
    std::vector<Token> stmt;  // member-level statement being accumulated
  };
  std::vector<ClassState> stack;
  int depth = 0;
  bool capturing = false;  // inside a snapshot()/restore() body of stack.back()
  int capture_depth = 0;   // member depth of the capturing class

  auto finish_class = [&](ClassState& cls) {
    // Recoverable programs must cover every member — except forwarding
    // adapters, whose snapshot() delegates to a wrapped program
    // (`inner_->snapshot(...)`): their own members are transport state that
    // deliberately survives an amnesia wipe (the NIC analogy of DESIGN.md
    // "Recovery model"), not node state. A snapshot() defined out of line
    // is invisible here, so the class is skipped rather than guessed at.
    if (!cls.overrides_snapshot || cls.delegates || cls.out_of_line) return;
    for (const Member& m : cls.members) {
      if (cls.coverage.count(m.name) != 0) continue;
      ctx.flag(m.line, "unsnapshotted-state",
               "member '" + m.name +
                   "' of a recoverable NodeProgram (it overrides snapshot) is "
                   "serialized by neither snapshot() nor restore(): after an "
                   "amnesia restart it reverts to its constructed value and the "
                   "node replays from a state that never existed — cover it, or "
                   "mark deliberately reconstructed config with qlint-allow");
    }
  };

  auto process_member_stmt = [&](ClassState& cls) {
    // Member declaration: plain `Type name_ = init;` — no calls, no braces,
    // no pointers, not const / static / using.
    bool plain = true;
    for (const Token& t : cls.stmt) {
      if (t.kind == TokenKind::kPunct && (t.text == "(" || t.text == "{" || t.text == "*")) {
        plain = false;
      }
      if (t.kind == TokenKind::kIdentifier &&
          (t.text == "const" || t.text == "static" || t.text == "using")) {
        plain = false;
      }
    }
    if (!plain) return;
    for (const Token& t : cls.stmt) {
      if (t.kind == TokenKind::kIdentifier && t.text.size() > 1 &&
          t.text.back() == '_') {
        cls.members.push_back({t.line, t.text});
      }
    }
  };

  const std::vector<Token>& code = ctx.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];

    // New class/struct deriving from NodeProgram? (`enum class` is not a
    // class; `template <class T>` has no base clause before its body.)
    if ((is_ident(t, "class") || is_ident(t, "struct")) &&
        !(i > 0 && is_ident(code[i - 1], "enum"))) {
      // Scan the head: up to '{' starts a definition, ';' is a forward decl.
      std::size_t brace = std::string::npos;
      bool derives = false;
      bool seen_base_colon = false;
      for (std::size_t j = i + 1; j < code.size(); ++j) {
        if (is_punct(code[j], ";")) break;
        if (is_punct(code[j], "{")) {
          brace = j;
          break;
        }
        if (is_punct(code[j], ":")) seen_base_colon = true;
        if (seen_base_colon && is_ident(code[j], "NodeProgram")) derives = true;
      }
      if (brace != std::string::npos && derives) {
        ClassState cls;
        cls.base_depth = depth;
        stack.push_back(std::move(cls));
        // Fall through: the '{' below will be counted by the depth tracker
        // when the loop reaches it.
      }
    }

    bool member_level = !stack.empty() && !capturing &&
                        depth == stack.back().base_depth + 1;
    if (member_level && t.kind == TokenKind::kIdentifier &&
        (t.text == "snapshot" || t.text == "restore") && ctx.punct_at(i + 1, "(")) {
      // Method head at member depth: find whether a body follows.
      std::size_t after = match_paren(code, i + 1);
      bool has_body = false;
      std::size_t j = after;
      while (j != std::string::npos && j < code.size()) {
        if (is_punct(code[j], "{")) {
          has_body = true;
          break;
        }
        if (is_punct(code[j], ";")) break;
        if (is_punct(code[j], "=")) break;  // = 0 / = default
        ++j;
      }
      if (t.text == "snapshot") stack.back().overrides_snapshot = true;
      if (has_body) {
        capturing = true;
        capture_depth = depth;
        // The signature's identifiers count as coverage too (harmless: they
        // are parameter and type names, not members).
      } else {
        stack.back().out_of_line = true;
      }
      stack.back().stmt.clear();
    }

    if (capturing) {
      if (t.kind == TokenKind::kIdentifier) stack.back().coverage.insert(t.text);
      if (is_punct(t, "->") && ctx.ident_at(i + 1, "snapshot") &&
          ctx.punct_at(i + 2, "(")) {
        stack.back().delegates = true;
      }
    } else if (member_level) {
      if (is_punct(t, ";")) {
        process_member_stmt(stack.back());
        stack.back().stmt.clear();
      } else if (is_punct(t, ":") || is_punct(t, "{")) {
        stack.back().stmt.clear();  // access specifier / block opener
      } else if (!is_punct(t, "}")) {
        stack.back().stmt.push_back(t);
      }
    }

    if (is_punct(t, "{")) ++depth;
    if (is_punct(t, "}")) {
      --depth;
      if (capturing && !stack.empty() && depth <= capture_depth) capturing = false;
      while (!stack.empty() && depth <= stack.back().base_depth) {
        finish_class(stack.back());
        stack.pop_back();
        capturing = false;
      }
    }
  }
  while (!stack.empty()) {
    finish_class(stack.back());
    stack.pop_back();
  }
}

// --- Rule: reactor-blocking-call --------------------------------------------

void check_reactor_blocking_call(RuleCtx& ctx) {
  // The reactor translation units: the poll() loop in src/serve/server.*
  // and the daemon main that runs it. The reactor thread owns every socket
  // and all connection state; one blocking call stalls every tenant.
  if (!path_contains(ctx.path, "serve/server") &&
      !path_contains(ctx.path, "qcongestd")) {
    return;
  }
  auto flag = [&](std::size_t line, const std::string& what) {
    ctx.flag(line, "reactor-blocking-call",
             "blocking call " + what +
                 " in a reactor translation unit: the poll() loop thread owns "
                 "every socket, so one blocking call stalls all connections — "
                 "hand the work to the pool and return to poll()");
  };
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const Token& t = ctx.tok(i);
    if (is_ident(t, "this_thread") && ctx.punct_at(i + 1, "::") &&
        (ctx.ident_at(i + 2, "sleep_for") || ctx.ident_at(i + 2, "sleep_until"))) {
      flag(t.line, "'std::this_thread::" + ctx.tok(i + 2).text + "'");
    }
    if (t.kind == TokenKind::kIdentifier && ctx.punct_at(i + 1, "(") &&
        (t.text == "usleep" || t.text == "nanosleep" || t.text == "sleep" ||
         t.text == "system" || t.text == "getchar" || t.text == "fgets" ||
         t.text == "scanf" || t.text == "getline")) {
      flag(t.line, "'" + t.text + "()'");
    }
    if ((is_punct(t, ".") || is_punct(t, "->")) && i + 2 < ctx.size() &&
        ctx.tok(i + 1).kind == TokenKind::kIdentifier && ctx.punct_at(i + 2, "(")) {
      const std::string& m = ctx.tok(i + 1).text;
      if (m == "wait" || m == "wait_for" || m == "wait_until" || m == "join" ||
          m == "parallel_for") {
        flag(ctx.tok(i + 1).line, "'." + m + "()'");
      }
    }
  }
}

// --- Rule: lock-across-submit -----------------------------------------------

void check_lock_across_submit(RuleCtx& ctx) {
  struct HeldLock {
    std::string name;
    int depth = 0;  // brace depth the guard lives at
    bool active = true;
  };
  std::vector<HeldLock> locks;
  int depth = 0;
  const std::vector<Token>& code = ctx.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (is_punct(t, "{")) ++depth;
    if (is_punct(t, "}")) {
      while (!locks.empty() && locks.back().depth >= depth) locks.pop_back();
      --depth;
      continue;
    }

    // Guard declaration: lock_guard/unique_lock/scoped_lock/shared_lock,
    // optionally templated, then `name(` or `name{`.
    if (t.kind == TokenKind::kIdentifier &&
        (t.text == "lock_guard" || t.text == "unique_lock" ||
         t.text == "scoped_lock" || t.text == "shared_lock")) {
      std::size_t j = i + 1;
      if (ctx.punct_at(j, "<")) {
        j = match_angle(code, j);
        if (j == std::string::npos) continue;
      }
      if (j < code.size() && code[j].kind == TokenKind::kIdentifier &&
          (ctx.punct_at(j + 1, "(") || ctx.punct_at(j + 1, "{"))) {
        locks.push_back({code[j].text, depth, true});
      }
      continue;
    }

    // name.unlock() / name.lock() toggles the guard.
    if (t.kind == TokenKind::kIdentifier && ctx.punct_at(i + 1, ".") &&
        i + 3 < ctx.size() && ctx.punct_at(i + 3, "(")) {
      for (HeldLock& held : locks) {
        if (held.name != t.text) continue;
        if (ctx.ident_at(i + 2, "unlock")) held.active = false;
        if (ctx.ident_at(i + 2, "lock")) held.active = true;
      }
    }

    bool any_active = std::any_of(locks.begin(), locks.end(),
                                  [](const HeldLock& l) { return l.active; });
    if (!any_active) continue;

    if ((is_punct(t, ".") || is_punct(t, "->")) && ctx.ident_at(i + 1, "submit") &&
        ctx.punct_at(i + 2, "(")) {
      ctx.flag(ctx.tok(i + 1).line, "lock-across-submit",
               "ThreadPool/Service submit() while a lock guard is held: the "
               "hand-off (or its synchronously-run callback) can need the held "
               "mutex — release the guard before fanning out, as "
               "serve::Service does");
    }
    if ((is_punct(t, ".") || is_punct(t, "->")) && i + 2 < ctx.size() &&
        ctx.tok(i + 1).kind == TokenKind::kIdentifier && ctx.punct_at(i + 2, "(")) {
      const std::string& m = ctx.tok(i + 1).text;
      if (m == "wait" || m == "wait_for" || m == "wait_until") {
        // cv.wait(lk) re-releases exactly the lock it is given; any *other*
        // guard stays held across the sleep — deadlock bait under load.
        std::string arg = i + 3 < ctx.size() &&
                                  ctx.tok(i + 3).kind == TokenKind::kIdentifier
                              ? ctx.tok(i + 3).text
                              : std::string();
        bool other_held = std::any_of(
            locks.begin(), locks.end(),
            [&](const HeldLock& l) { return l.active && l.name != arg; });
        if (other_held) {
          ctx.flag(ctx.tok(i + 1).line, "lock-across-submit",
                   "'" + m +
                       "' sleeps while a lock guard other than its own lock "
                       "argument is held: the woken side may need that mutex — "
                       "never hold a second lock across a wait");
        }
      }
    }
  }
}

// --- Rule: untrusted-narrowing ----------------------------------------------

const char* kWireSources[] = {"get_u16", "get_u32", "get_u64"};
const char* kOutParamSources[] = {"parse_u64", "parse_size"};
/// Integer types narrower than the std::uint64_t the wire parsers produce.
const char* kNarrowTypes[] = {
    "char",     "short",    "int",      "unsigned", "int8_t",  "int16_t",
    "int32_t",  "uint8_t",  "uint16_t", "uint32_t",
};
/// Receivers whose field reads carry payload-derived values.
const char* kTaintedReceivers[] = {"spec", "frame", "crash", "job"};

bool in_list(const std::string& text, const char* const* list, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (text == list[i]) return true;
  }
  return false;
}

void check_untrusted_narrowing(RuleCtx& ctx) {
  // The untrusted-input surface: the wire/service layer and its two CLI
  // front ends. Everything else parses trusted, repo-authored inputs.
  if (!path_contains(ctx.path, "serve/") && !path_contains(ctx.path, "qload") &&
      !path_contains(ctx.path, "qcongestd")) {
    return;
  }
  const std::vector<Token>& code = ctx.code;
  std::set<std::string> tainted;  // wire-derived locals
  std::set<std::string> checked;  // bound-checked since their last taint
  std::size_t stmt_start = 0;

  auto member_key = [&](std::size_t i) -> std::string {
    // spec.nodes / frame.payload style field reads: i at the receiver.
    if (i + 2 < code.size() && code[i].kind == TokenKind::kIdentifier &&
        in_list(code[i].text, kTaintedReceivers, 4) && is_punct(code[i + 1], ".") &&
        code[i + 2].kind == TokenKind::kIdentifier) {
      return code[i].text + "." + code[i + 2].text;
    }
    return std::string();
  };
  auto flag = [&](std::size_t line, const std::string& what, const std::string& how) {
    ctx.flag(line, "untrusted-narrowing",
             "'" + what + "' originates in untrusted wire/spec input and " + how +
                 " without a preceding bound check — range-check attacker-"
                 "chosen values (<, <=, std::min/clamp) before they size, "
                 "index, or truncate anything");
  };
  // True when any token in [lo, hi) is a tainted, unchecked value; names it.
  auto tainted_in_range = [&](std::size_t lo, std::size_t hi, std::string* name) {
    for (std::size_t k = lo; k < hi && k < code.size(); ++k) {
      // A min/clamp call inside the range bounds everything it wraps
      // (handled here too because the range may be scanned before the main
      // loop reaches the call token).
      if (code[k].kind == TokenKind::kIdentifier &&
          (code[k].text == "min" || code[k].text == "clamp") &&
          k + 1 < code.size() && is_punct(code[k + 1], "(")) {
        std::size_t end = match_paren(code, k + 1);
        if (end != std::string::npos) {
          for (std::size_t m = k + 2; m < end; ++m) {
            if (code[m].kind == TokenKind::kIdentifier) checked.insert(code[m].text);
          }
          k = end - 1;
          continue;
        }
      }
      std::string key = member_key(k);
      if (!key.empty() && checked.count(key) == 0) {
        *name = key;
        return true;
      }
      if (code[k].kind == TokenKind::kIdentifier && tainted.count(code[k].text) != 0 &&
          checked.count(code[k].text) == 0) {
        *name = code[k].text;
        return true;
      }
    }
    return false;
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind == TokenKind::kPunct &&
        (t.text == ";" || t.text == "{" || t.text == "}")) {
      stmt_start = i + 1;
      continue;
    }

    if (t.kind == TokenKind::kIdentifier && ctx.punct_at(i + 1, "(")) {
      // `x = get_u32(...)`: the assigned name becomes tainted (and any
      // earlier bound check on it is stale — re-parsing re-taints).
      if (in_list(t.text, kWireSources, 3)) {
        for (std::size_t j = i; j-- > stmt_start;) {
          if (is_punct(code[j], "=") && j > stmt_start &&
              code[j - 1].kind == TokenKind::kIdentifier) {
            tainted.insert(code[j - 1].text);
            checked.erase(code[j - 1].text);
            break;
          }
        }
      }
      // `parse_u64(text, &x)`: the out-param becomes tainted.
      if (in_list(t.text, kOutParamSources, 2)) {
        std::size_t end = match_paren(code, i + 1);
        for (std::size_t j = i + 2; end != std::string::npos && j + 1 < end; ++j) {
          // Only a whole `&x` argument taints x; `&out->field` writes
          // through a struct whose field reads are tracked as member keys.
          if (is_punct(code[j], "&") && code[j + 1].kind == TokenKind::kIdentifier &&
              (is_punct(code[j - 1], "(") || is_punct(code[j - 1], ",")) &&
              (ctx.punct_at(j + 2, ")") || ctx.punct_at(j + 2, ","))) {
            tainted.insert(code[j + 1].text);
            checked.erase(code[j + 1].text);
          }
        }
      }
      // std::min / std::clamp bound their argument.
      if (t.text == "min" || t.text == "clamp") {
        std::size_t end = match_paren(code, i + 1);
        for (std::size_t j = i + 2; end != std::string::npos && j < end; ++j) {
          if (code[j].kind == TokenKind::kIdentifier) checked.insert(code[j].text);
          std::string key = member_key(j);
          if (!key.empty()) checked.insert(key);
        }
      }
    }

    // Comparison marks its identifier operands as bound-checked.
    if (t.kind == TokenKind::kPunct &&
        (t.text == "<" || t.text == ">" || t.text == "<=" || t.text == ">=")) {
      if (i > 0 && code[i - 1].kind == TokenKind::kIdentifier) {
        checked.insert(code[i - 1].text);
        if (i >= 3) {
          std::string key = member_key(i - 3);
          if (!key.empty()) checked.insert(key);
        }
      }
      if (i + 1 < code.size() && code[i + 1].kind == TokenKind::kIdentifier) {
        checked.insert(code[i + 1].text);
        std::string key = member_key(i + 1);
        if (!key.empty()) checked.insert(key);
      }
    }

    // Violation: static_cast to a narrower integer type.
    if (is_ident(t, "static_cast") && ctx.punct_at(i + 1, "<")) {
      std::size_t close = match_angle(code, i + 1);
      if (close == std::string::npos || !ctx.punct_at(close, "(")) continue;
      bool narrow = false;
      for (std::size_t j = i + 2; j + 1 < close; ++j) {
        if (code[j].kind == TokenKind::kIdentifier &&
            in_list(code[j].text, kNarrowTypes, 10)) {
          narrow = true;
        }
      }
      std::size_t args_end = match_paren(code, close);
      std::string name;
      if (narrow && args_end != std::string::npos &&
          tainted_in_range(close + 1, args_end - 1, &name)) {
        flag(t.line, name, "is narrowed by a static_cast");
      }
      continue;
    }

    // Violation: a declaration with a narrower integer type initialized
    // from a tainted value (`int t = value;`).
    if (t.kind == TokenKind::kIdentifier && in_list(t.text, kNarrowTypes, 10) &&
        i + 2 < code.size() && code[i + 1].kind == TokenKind::kIdentifier &&
        is_punct(code[i + 2], "=")) {
      std::size_t end = i + 3;
      while (end < code.size() && !is_punct(code[end], ";")) ++end;
      std::string name;
      if (tainted_in_range(i + 3, end, &name)) {
        flag(t.line, name, "initializes a narrower integer ('" + t.text + "')");
      }
    }

    // Violation: binary arithmetic on an unchecked wire value (overflow /
    // wraparound before any range check). Member reads are exempt — only
    // values straight off the frame parser count.
    if (t.kind == TokenKind::kPunct &&
        (t.text == "+" || t.text == "-" || t.text == "*")) {
      auto value_like = [&](std::size_t j) {
        if (j >= code.size()) return false;
        const Token& v = code[j];
        return v.kind == TokenKind::kIdentifier || v.kind == TokenKind::kNumber ||
               is_punct(v, ")") || is_punct(v, "]");
      };
      if (i > 0 && value_like(i - 1) && value_like(i + 1)) {  // binary, not unary
        for (std::size_t j : {i - 1, i + 1}) {
          if (code[j].kind == TokenKind::kIdentifier &&
              tainted.count(code[j].text) != 0 && checked.count(code[j].text) == 0) {
            flag(t.line, code[j].text,
                 "feeds '" + t.text + "' arithmetic (overflow/wraparound)");
          }
        }
      }
    }
  }
}

// --- Rule: hot-path-alloc ---------------------------------------------------

/// The per-word / per-amplitude functions: Engine's round loop runs these
/// tens of thousands of times per trial, the reliable transport's wrapper
/// (ReliableProgram, defined out of class so the matcher sees it) once per
/// node per physical round and once per physical word, Statevector::apply*
/// once per gate per 2^q amplitudes (widen once per state, in place), and
/// Circuit::apply_to's grouping loop once per op of every Grover iterate.
/// A heap allocation here is an allocator round-trip multiplied by the
/// hottest loop in the repo — the arena/pooling work of DESIGN.md §13
/// exists to keep these allocation-free. Cold setup (the
/// constructor, set_*, run() initialization) allocates freely; `grow_fill`
/// is the sanctioned amortized growth path and is deliberately not listed.
struct HotFn {
  const char* cls;
  const char* fn;
};
const HotFn kHotFns[] = {
    {"Engine", "deliver"},          {"Engine", "commit"},
    {"Engine", "admit"},            {"Engine", "corrupt_payload"},
    {"Engine", "run_pass_serial"},  {"Engine", "run_pass_parallel"},
    {"Engine", "scatter_inboxes"},  {"Engine", "reset_delivery_buffers"},
    {"Statevector", "apply"},       {"Statevector", "apply_controlled"},
    {"Statevector", "apply_run"},   {"Statevector", "cnot"},
    {"Statevector", "cz"},          {"Statevector", "ccx"},
    {"Statevector", "swap_qubits"}, {"Statevector", "h_all"},
    {"Statevector", "widen"},       {"Circuit", "apply_to"},
    {"ReliableProgram", "on_round"},      {"ReliableProgram", "handle_chunk"},
    {"ReliableProgram", "drain_ready"},   {"ReliableProgram", "execute_round"},
    {"ReliableProgram", "transmit"},
};

void check_hot_path_alloc(RuleCtx& ctx) {
  const bool engine_tu = path_contains(ctx.path, "net/engine");
  const bool reliable_tu = path_contains(ctx.path, "net/reliable");
  const bool statevector_tu = path_contains(ctx.path, "quantum/statevector");
  const bool circuit_tu = path_contains(ctx.path, "quantum/circuit");
  const bool kernels_tu = path_contains(ctx.path, "quantum/kernels");
  if (!engine_tu && !reliable_tu && !statevector_tu && !circuit_tu && !kernels_tu) {
    return;
  }
  const std::vector<Token>& code = ctx.code;

  // Receivers whose capacity is managed somewhere in this TU: a reserve /
  // resize / assign anywhere means the container's push_back in steady
  // state is a bump, not an allocation (the recycle-across-passes pattern:
  // capacity survives clear()).
  std::set<std::string> reserved;
  for (std::size_t i = 0; i + 3 < code.size(); ++i) {
    if (code[i].kind != TokenKind::kIdentifier) continue;
    if (!(is_punct(code[i + 1], ".") || is_punct(code[i + 1], "->"))) continue;
    if ((ctx.ident_at(i + 2, "reserve") || ctx.ident_at(i + 2, "resize") ||
         ctx.ident_at(i + 2, "assign")) &&
        ctx.punct_at(i + 3, "(")) {
      reserved.insert(code[i].text);
    }
  }

  // Hot token ranges: the whole file for the kernel TUs (every function
  // there IS the inner loop), else the bodies of the kHotFns methods.
  std::vector<std::pair<std::size_t, std::size_t>> hot;
  if (kernels_tu) {
    hot.emplace_back(0, code.size());
  } else {
    for (std::size_t i = 0; i + 3 < code.size(); ++i) {
      if (code[i].kind != TokenKind::kIdentifier || !is_punct(code[i + 1], "::") ||
          code[i + 2].kind != TokenKind::kIdentifier || !is_punct(code[i + 3], "(")) {
        continue;
      }
      bool is_hot = false;
      for (const HotFn& fn : kHotFns) {
        if (code[i].text == fn.cls && code[i + 2].text == fn.fn) is_hot = true;
      }
      if (!is_hot) continue;
      std::size_t after = match_paren(code, i + 3);
      if (after == std::string::npos) continue;
      // Skip trailing qualifiers; a ';' means declaration, not definition.
      std::size_t open = after;
      while (open < code.size() && !is_punct(code[open], "{") &&
             !is_punct(code[open], ";")) {
        ++open;
      }
      if (open >= code.size() || !is_punct(code[open], "{")) continue;
      int depth = 0;
      std::size_t close = open;
      for (; close < code.size(); ++close) {
        if (is_punct(code[close], "{")) ++depth;
        if (is_punct(code[close], "}") && --depth == 0) break;
      }
      hot.emplace_back(open + 1, close);
    }
  }

  auto flag = [&](std::size_t line, const std::string& what) {
    ctx.flag(line, "hot-path-alloc",
             what + " in a per-word/per-amplitude hot path (Engine round "
                   "loop, the reliable transport's per-word path, "
                   "Statevector::apply*, Circuit::apply_to, kernels): "
                   "an allocator round-trip multiplied by the hottest loop "
                   "in the repo — use the pass arena / pooled buffers "
                   "(DESIGN.md §13), reserve up front, or qlint-allow a "
                   "genuinely cold branch with a reason");
  };
  for (const auto& [lo, hi] : hot) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Token& t = code[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "new") {
        // Placement new into arena storage is the sanctioned spelling and
        // starts with '(' after `new`.
        if (!ctx.punct_at(i + 1, "(")) flag(t.line, "'new'");
      } else if ((t.text == "push_back" || t.text == "emplace_back") &&
                 i >= 2 && ctx.punct_at(i + 1, "(") &&
                 (is_punct(code[i - 1], ".") || is_punct(code[i - 1], "->"))) {
        const Token& recv = code[i - 2];
        if (recv.kind == TokenKind::kIdentifier &&
            reserved.count(recv.text) == 0) {
          flag(t.line, "'" + recv.text + "." + t.text +
                           "' on a vector this TU never reserves");
        }
      } else if (t.text == "function" && ctx.punct_at(i + 1, "<")) {
        flag(t.line, "'std::function' construction (type-erased callable "
                     "heap-allocates its target)");
      } else if ((t.text == "make_unique" || t.text == "make_shared" ||
                  t.text == "malloc") &&
                 (ctx.punct_at(i + 1, "(") || ctx.punct_at(i + 1, "<"))) {
        flag(t.line, "'" + t.text + "'");
      }
    }
  }
}

// --- Rule: catch-all-swallow ------------------------------------------------

void check_catch_all_swallow(RuleCtx& ctx) {
  const std::vector<Token>& code = ctx.code;
  for (std::size_t i = 0; i + 4 < code.size(); ++i) {
    if (!(is_ident(code[i], "catch") && is_punct(code[i + 1], "(") &&
          is_punct(code[i + 2], "...") && is_punct(code[i + 3], ")") &&
          is_punct(code[i + 4], "{"))) {
      continue;
    }
    int depth = 1;
    bool handled = false;
    std::size_t j = i + 5;
    for (; j < code.size() && depth > 0; ++j) {
      const Token& t = code[j];
      if (is_punct(t, "{")) ++depth;
      if (is_punct(t, "}")) --depth;
      if (t.kind != TokenKind::kIdentifier) continue;
      // Rethrowing, capturing the exception, or producing any structured /
      // logged error all count as handling; only a silent swallow is flagged.
      if (t.text == "throw" || t.text == "rethrow_exception" ||
          t.text == "current_exception" || t.text == "set_label" ||
          t.text == "set_outcome" || t.text == "abort" || t.text == "exit" ||
          t.text == "_Exit" || t.text == "terminate" || t.text == "perror" ||
          t.text == "fprintf" || t.text == "printf" || t.text == "fputs" ||
          t.text == "cerr" || t.text == "clog" || t.text == "FAIL" ||
          t.text == "ADD_FAILURE" ||
          t.text.find("error") != std::string::npos ||
          t.text.find("Error") != std::string::npos ||
          t.text.find("fail") != std::string::npos) {
        handled = true;
      }
    }
    if (!handled) {
      ctx.flag(code[i].line, "catch-all-swallow",
               "catch (...) that neither rethrows nor produces a structured "
               "error report: the failure vanishes from every ledger — "
               "rethrow, convert to an error report/log, or mark a designed "
               "isolation boundary with qlint-allow and a reason");
    }
  }
}

// --- Rule: unchecked-io-result ----------------------------------------------

void check_unchecked_io_result(RuleCtx& ctx) {
  // The persistence paths: the journal/cache files that promise durability
  // and the reactor sockets. A write()/fsync()/rename() whose result is
  // dropped turns "durable" into "probably durable" — ENOSPC, EIO, and
  // disk-full all report through exactly the return value being ignored.
  if (!path_contains(ctx.path, "src/serve") &&
      !path_contains(ctx.path, "src/cache")) {
    return;
  }
  static const std::set<std::string> kCalls = {
      "write", "pwrite", "fsync", "fdatasync", "rename", "ftruncate"};
  const std::vector<Token>& code = ctx.code;
  auto at_statement_start = [&](std::size_t s) {
    if (s == 0) return true;
    const Token& prev = code[s - 1];
    return is_punct(prev, ";") || is_punct(prev, "{") || is_punct(prev, "}");
  };
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier || kCalls.count(t.text) == 0) continue;
    if (!ctx.punct_at(i + 1, "(")) continue;
    // Member calls (stream.write) and named-namespace calls (fs::rename,
    // which reports through an error_code or throws) are out of scope;
    // only the POSIX spellings `call(...)` and `::call(...)` are IO-result
    // carriers here.
    std::size_t s = i;
    if (i >= 1 && is_punct(code[i - 1], "::")) {
      if (i >= 2 && code[i - 2].kind == TokenKind::kIdentifier) continue;
      s = i - 1;
    } else if (i >= 1 && (is_punct(code[i - 1], ".") || is_punct(code[i - 1], "->"))) {
      continue;
    }
    bool bare = at_statement_start(s);
    // `(void)call(...)` is the same silent discard with extra ceremony; an
    // intentional drop must say why via qlint-allow instead.
    bool void_cast = s >= 3 && is_punct(code[s - 3], "(") &&
                     is_ident(code[s - 2], "void") && is_punct(code[s - 1], ")") &&
                     at_statement_start(s - 3);
    if (!bare && !void_cast) continue;
    ctx.flag(t.line, "unchecked-io-result",
             "result of '" + t.text +
                 "()' ignored in a persistence path: ENOSPC/EIO report "
                 "through this return value — check it and degrade "
                 "explicitly (journal-style), or qlint-allow with a reason");
  }
}

}  // namespace

// --- Public API -------------------------------------------------------------

const std::vector<RuleInfo>& rule_infos() {
  static const std::vector<RuleInfo> kRules = {
      {"banned-random",
       "rand()/srand()/std::random_device/time(NULL) outside src/util — "
       "randomness must flow through the seeded util::Rng"},
      {"raw-thread",
       "std::thread/std::jthread/std::async/.detach() outside "
       "src/util/thread_pool — concurrency goes through util::ThreadPool"},
      {"unordered-iter",
       "iteration over std::unordered_{map,set}: visit order is "
       "implementation-defined (protocol nondeterminism)"},
      {"float-equal",
       "==/!= against a float literal in src/quantum, src/query"},
      {"runresult-discard",
       "framework phase called without accumulating its RunResult cost"},
      {"unsnapshotted-state",
       "recoverable NodeProgram member missing from snapshot()/restore()"},
      {"reactor-blocking-call",
       "sleep/wait/join/blocking stdio in the poll() reactor translation "
       "units — one blocking call stalls every connection"},
      {"lock-across-submit",
       "pool/service submit() or a foreign-lock condition wait inside a "
       "lock guard scope — deadlock bait under load"},
      {"untrusted-narrowing",
       "wire/spec-derived value narrowed or used in arithmetic before any "
       "bound check"},
      {"hot-path-alloc",
       "heap allocation (new, unreserved push_back, std::function) in the "
       "Engine round loop, the reliable transport's per-word path, "
       "Statevector::apply*, or the SIMD kernels"},
      {"catch-all-swallow",
       "catch (...) that neither rethrows nor produces a structured error"},
      {"unchecked-io-result",
       "write/fsync/rename/ftruncate result ignored in the src/serve or "
       "src/cache persistence paths"},
  };
  return kRules;
}

std::vector<std::string> collect_unordered_names(const std::string& content) {
  return collect_unordered_names_from(code_tokens(content));
}

std::vector<std::string> collect_includes(const std::string& content) {
  std::vector<std::string> includes;
  for (const Token& t : tokenize(content)) {
    if (t.kind != TokenKind::kDirective) continue;
    std::size_t at = t.text.find("include");
    if (at == std::string::npos) continue;
    std::size_t open = t.text.find('"', at);
    if (open == std::string::npos) continue;
    std::size_t close = t.text.find('"', open + 1);
    if (close == std::string::npos) continue;
    includes.push_back(t.text.substr(open + 1, close - open - 1));
  }
  return includes;
}

void SymbolIndex::add_file(const std::string& path, const std::string& content) {
  Entry entry;
  entry.names = collect_unordered_names(content);
  entry.includes = collect_includes(content);
  files_[path] = std::move(entry);
}

const std::string* SymbolIndex::resolve(const std::string& include) const {
  std::string suffix = "/" + include;
  for (const auto& [path, entry] : files_) {
    (void)entry;
    if (path == include) return &path;
    if (path.size() > suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return &path;
    }
  }
  return nullptr;
}

std::vector<std::string> SymbolIndex::unordered_names_for(
    const std::string& path) const {
  std::vector<std::string> names;
  std::set<std::string> visited;
  std::vector<std::string> frontier = {path};
  while (!frontier.empty()) {
    std::string current = std::move(frontier.back());
    frontier.pop_back();
    if (!visited.insert(current).second) continue;
    auto it = files_.find(current);
    if (it == files_.end()) continue;
    names.insert(names.end(), it->second.names.begin(), it->second.names.end());
    for (const std::string& include : it->second.includes) {
      if (const std::string* resolved = resolve(include)) frontier.push_back(*resolved);
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

std::vector<LintDiagnostic> lint_source(
    const std::string& path, const std::string& content, const LintConfig& config,
    const std::vector<std::string>& extra_unordered_names) {
  std::vector<Token> code = code_tokens(content);
  std::vector<std::string> raw_lines = split_lines(content);

  std::vector<std::string> names = collect_unordered_names_from(code);
  names.insert(names.end(), extra_unordered_names.begin(),
               extra_unordered_names.end());
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());

  std::vector<LintDiagnostic> candidates;
  RuleCtx ctx{path, code, raw_lines, candidates};
  check_banned_random(ctx);
  check_raw_thread(ctx);
  check_unordered_iter(ctx, names);
  check_float_equal(ctx);
  check_runresult_discard(ctx);
  check_unsnapshotted_state(ctx);
  check_reactor_blocking_call(ctx);
  check_lock_across_submit(ctx);
  check_untrusted_narrowing(ctx);
  check_hot_path_alloc(ctx);
  check_catch_all_swallow(ctx);
  check_unchecked_io_result(ctx);

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const LintDiagnostic& a, const LintDiagnostic& b) {
                     return a.line < b.line;
                   });
  // One diagnostic per (rule, line) is enough.
  std::set<std::pair<std::string, std::size_t>> seen;
  std::vector<LintDiagnostic> diagnostics;
  for (LintDiagnostic& diag : candidates) {
    if (!seen.insert({diag.rule, diag.line}).second) continue;
    InlineAllow allow = diag.line >= 1 && diag.line <= raw_lines.size()
                            ? inline_allow(raw_lines[diag.line - 1], diag.rule)
                            : InlineAllow::kNone;
    if (allow == InlineAllow::kSuppressed) continue;
    if (config_allowed(config, diag)) continue;
    if (allow == InlineAllow::kMissingReason) {
      diag.message +=
          " [a qlint-allow without ': reason' is inert — suppressions must "
          "say why]";
    }
    diagnostics.push_back(std::move(diag));
  }
  return diagnostics;
}

LintResult lint_trees(const std::vector<std::string>& roots,
                      const LintConfig& config) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const std::string& root : roots) {
    if (!fs::exists(root)) {
      throw std::invalid_argument("lint_trees: no such directory: " + root);
    }
    for (auto it = fs::recursive_directory_iterator(root);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory()) {
        std::string dir = it->path().filename().string();
        if (dir == "build" || dir == ".git") it.disable_recursion_pending();
        continue;
      }
      std::string ext = it->path().extension().string();
      if (ext == ".cpp" || ext == ".hpp") files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  auto read_file = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };

  // Pass 1: the cross-TU symbol index over every file of every root, so a
  // tests/ or tools/ TU sees the unordered members of included src/ headers.
  SymbolIndex index;
  std::vector<std::pair<std::string, std::string>> contents;
  contents.reserve(files.size());
  for (const fs::path& file : files) {
    contents.emplace_back(file.generic_string(), read_file(file));
    index.add_file(contents.back().first, contents.back().second);
  }

  // Pass 2: lint with each file's resolved view of the index.
  LintResult result;
  for (const auto& [path, content] : contents) {
    auto diags = lint_source(path, content, config, index.unordered_names_for(path));
    result.diagnostics.insert(result.diagnostics.end(),
                              std::make_move_iterator(diags.begin()),
                              std::make_move_iterator(diags.end()));
    ++result.files_scanned;
  }
  return result;
}

LintConfig load_allowlist(const std::string& path) {
  LintConfig config;
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("load_allowlist: cannot read " + path);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;  // whole-line comment
    std::size_t hash = line.find('#', first);
    std::string entry = line.substr(first, hash == std::string::npos
                                               ? std::string::npos
                                               : hash - first);
    std::size_t last = entry.find_last_not_of(" \t\r");
    entry.erase(last == std::string::npos ? 0 : last + 1);
    std::string reason =
        hash == std::string::npos ? std::string() : line.substr(hash + 1);
    std::size_t reason_at = reason.find_first_not_of(" \t");
    if (reason_at == std::string::npos) {
      throw std::invalid_argument(
          path + ":" + std::to_string(line_no) +
          ": allowlist entry missing its trailing '# reason' — every "
          "suppression is a debt note and must say why it exists");
    }
    if (!entry.empty()) config.allow.push_back(entry);
  }
  return config;
}

}  // namespace qcongest::check
