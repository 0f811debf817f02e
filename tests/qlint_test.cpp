#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/check/lint.hpp"
#include "src/check/sarif.hpp"
#include "src/obs/json.hpp"

namespace qcongest::check {
namespace {

std::vector<std::string> rules_of(const std::vector<LintDiagnostic>& diagnostics) {
  std::vector<std::string> rules;
  for (const auto& d : diagnostics) rules.push_back(d.rule);
  return rules;
}

bool flags(const std::vector<LintDiagnostic>& diagnostics, const std::string& rule) {
  auto rules = rules_of(diagnostics);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// --- banned-random -----------------------------------------------------------

TEST(Qlint, FlagsRandOutsideUtil) {
  auto d = lint_source("src/query/foo.cpp", "int x = rand() % 6;\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "banned-random");
  EXPECT_EQ(d[0].line, 1u);
}

TEST(Qlint, FlagsRandomDeviceAndSrand) {
  EXPECT_TRUE(flags(lint_source("src/net/foo.cpp", "std::random_device rd;\n"),
                    "banned-random"));
  EXPECT_TRUE(flags(lint_source("src/net/foo.cpp", "srand(42);\n"), "banned-random"));
}

TEST(Qlint, AllowsRandInsideUtil) {
  EXPECT_TRUE(lint_source("src/util/rng.cpp", "std::random_device rd;\n").empty());
}

TEST(Qlint, IgnoresRandInCommentsAndStrings) {
  EXPECT_TRUE(lint_source("src/net/foo.cpp", "// rand() would be bad here\n").empty());
  EXPECT_TRUE(lint_source("src/net/foo.cpp",
                          "const char* s = \"rand() is banned\";\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/net/foo.cpp",
                          "/* std::random_device is\n   banned */ int x;\n")
                  .empty());
}

TEST(Qlint, WholeWordMatchOnly) {
  // `operand()` and `my_rand()` must not be mistaken for rand().
  EXPECT_TRUE(lint_source("src/net/foo.cpp", "auto v = operand();\n").empty());
  EXPECT_TRUE(lint_source("src/net/foo.cpp", "auto v = my_rand();\n").empty());
}

// --- raw-thread --------------------------------------------------------------

TEST(Qlint, FlagsRawThreadOutsidePool) {
  auto d = lint_source("src/net/engine.cpp", "std::thread worker(loop);\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "raw-thread");
  EXPECT_TRUE(flags(lint_source("src/net/foo.cpp", "auto f = std::async(job);\n"),
                    "raw-thread"));
  EXPECT_TRUE(flags(lint_source("tools/foo.cpp", "std::jthread t(loop);\n"),
                    "raw-thread"));
  EXPECT_TRUE(flags(lint_source("src/net/foo.cpp", "worker.detach();\n"),
                    "raw-thread"));
}

TEST(Qlint, AllowsThreadsInsideThreadPool) {
  EXPECT_TRUE(
      lint_source("src/util/thread_pool.cpp", "std::thread worker(loop);\n").empty());
}

TEST(Qlint, ThreadMentionsThatSpawnNothingClean) {
  // Nested-name uses and comments read thread identity; they start nothing.
  EXPECT_TRUE(
      lint_source("src/net/foo.cpp", "std::thread::id tid = owner_;\n").empty());
  EXPECT_TRUE(
      lint_source("src/net/foo.cpp", "// std::thread is banned here\n").empty());
  EXPECT_TRUE(lint_source("src/net/foo.cpp", "my_threads.at(0);\n").empty());
}

TEST(Qlint, RawThreadInlineSuppression) {
  EXPECT_TRUE(lint_source("src/net/foo.cpp",
                          "std::thread t(f);  // qlint-allow(raw-thread): fixture\n")
                  .empty());
}

// --- unordered-iter ----------------------------------------------------------

TEST(Qlint, FlagsRangeForOverUnorderedMap) {
  std::string source =
      "std::unordered_map<int, int> counts;\n"
      "void f() {\n"
      "  for (const auto& [k, v] : counts) {}\n"
      "}\n";
  auto d = lint_source("src/net/foo.cpp", source);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "unordered-iter");
  EXPECT_EQ(d[0].line, 3u);
}

TEST(Qlint, FlagsBeginOnUnorderedSet) {
  std::string source =
      "std::unordered_set<int> seen;\n"
      "auto it = seen.begin();\n";
  EXPECT_TRUE(flags(lint_source("src/net/foo.cpp", source), "unordered-iter"));
}

TEST(Qlint, OrderedMapIterationClean) {
  std::string source =
      "std::map<int, int> counts;\n"
      "void f() {\n"
      "  for (const auto& [k, v] : counts) {}\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/net/foo.cpp", source).empty());
}

TEST(Qlint, MembershipOnlyUseOfUnorderedClean) {
  std::string source =
      "std::unordered_set<int> seen;\n"
      "bool f(int x) { return seen.count(x) > 0; }\n";
  EXPECT_TRUE(lint_source("src/net/foo.cpp", source).empty());
}

TEST(Qlint, HeaderMemberNamesCarryIntoImplementation) {
  // The member is declared in the header; the iteration lives in the .cpp.
  auto names = collect_unordered_names("std::unordered_map<K, V> amplitudes_;\n");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "amplitudes_");
  std::string impl = "for (const auto& [b, a] : amplitudes_) {}\n";
  EXPECT_TRUE(lint_source("src/quantum/foo.cpp", impl).empty());
  EXPECT_TRUE(flags(lint_source("src/quantum/foo.cpp", impl, {}, names),
                    "unordered-iter"));
}

// --- float-equal -------------------------------------------------------------

TEST(Qlint, FlagsFloatEqualityInQuantumCode) {
  auto d = lint_source("src/quantum/foo.cpp", "if (norm == 1.0) {}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "float-equal");
}

TEST(Qlint, FlagsFloatInequalityInQueryCode) {
  EXPECT_TRUE(flags(lint_source("src/query/foo.cpp", "if (eps != 0.5) {}\n"),
                    "float-equal"));
}

TEST(Qlint, FloatComparisonOutsideQuantumScopeClean) {
  EXPECT_TRUE(lint_source("src/net/foo.cpp", "if (rate == 0.0) {}\n").empty());
}

TEST(Qlint, FloatToleranceComparisonClean) {
  EXPECT_TRUE(
      lint_source("src/quantum/foo.cpp", "if (std::abs(norm - 1.0) <= 1e-9) {}\n")
          .empty());
  EXPECT_TRUE(lint_source("src/quantum/foo.cpp", "if (count == 10) {}\n").empty());
}

// --- runresult-discard -------------------------------------------------------

TEST(Qlint, FlagsDiscardedPhaseCall) {
  auto d = lint_source("src/framework/foo.cpp",
                       "void f(net::Engine& e) {\n"
                       "  distribute_state(e, state);\n"
                       "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "runresult-discard");
  EXPECT_EQ(d[0].line, 2u);
}

TEST(Qlint, AccumulatedPhaseCallClean) {
  EXPECT_TRUE(lint_source("src/framework/foo.cpp",
                          "void f(net::Engine& e) {\n"
                          "  auto cost = distribute_state(e, state);\n"
                          "  total += zero_reflection(e, state);\n"
                          "}\n")
                  .empty());
}

TEST(Qlint, ContinuationLineOfAssignmentClean) {
  // The call starts a line but not a statement: it is the RHS of an
  // assignment broken across lines.
  EXPECT_TRUE(lint_source("src/framework/foo.cpp",
                          "void f(net::Engine& e) {\n"
                          "  net::RunResult cost =\n"
                          "      net::pipelined_convergecast(e, depth);\n"
                          "}\n")
                  .empty());
}

TEST(Qlint, PhaseCallOutsideFrameworkClean) {
  EXPECT_TRUE(
      lint_source("src/apps/foo.cpp", "  distribute_state(e, state);\n").empty());
}

// --- unsnapshotted-state -----------------------------------------------------

TEST(Qlint, FlagsUncoveredMemberOfRecoverableProgram) {
  std::string source =
      "class Counter final : public NodeProgram {\n"
      " public:\n"
      "  bool snapshot(std::vector<std::int64_t>& words) const override {\n"
      "    words = {sum_};\n"
      "    return true;\n"
      "  }\n"
      "  bool restore(std::uint32_t v, std::span<const std::int64_t> words) override {\n"
      "    sum_ = words[0];\n"
      "    return true;\n"
      "  }\n"
      " private:\n"
      "  std::int64_t sum_ = 0;\n"
      "  std::size_t forgotten_ = 0;\n"
      "};\n";
  auto d = lint_source("src/net/foo.cpp", source);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "unsnapshotted-state");
  EXPECT_EQ(d[0].line, 13u);
  EXPECT_NE(d[0].message.find("forgotten_"), std::string::npos);
}

TEST(Qlint, CoveredMembersOfRecoverableProgramClean) {
  std::string source =
      "class Counter final : public net::NodeProgram {\n"
      "  bool snapshot(std::vector<std::int64_t>& words) const override {\n"
      "    words = {sum_, static_cast<std::int64_t>(steps_)};\n"
      "    return true;\n"
      "  }\n"
      "  std::int64_t sum_ = 0;\n"
      "  std::size_t steps_ = 0;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/net/foo.cpp", source).empty());
}

TEST(Qlint, NonRecoverableProgramIsExemptFromSnapshotCoverage) {
  // Not overriding snapshot() means crash-stop semantics: nothing to cover.
  std::string source =
      "class Flooder final : public NodeProgram {\n"
      "  void on_round(Context& ctx, const std::vector<Message>& inbox) override;\n"
      "  std::size_t words_ = 0;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/net/foo.cpp", source).empty());
}

TEST(Qlint, PointerConstAndStaticMembersAreExempt) {
  // Pointers are rewired and const members rebuilt by the program factory;
  // neither is node state a checkpoint could (or should) carry.
  std::string source =
      "class P final : public NodeProgram {\n"
      "  bool snapshot(std::vector<std::int64_t>& words) const override {\n"
      "    words = {sum_};\n"
      "    return true;\n"
      "  }\n"
      "  std::int64_t sum_ = 0;\n"
      "  const Graph* graph_ = nullptr;\n"
      "  const std::size_t limit_ = 8;\n"
      "  static std::size_t instances_;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/net/foo.cpp", source).empty());
}

TEST(Qlint, ForwardingAdapterIsExemptFromSnapshotCoverage) {
  // A transport adapter delegates snapshot() to the wrapped program; its
  // own members are link state that deliberately survives an amnesia wipe.
  std::string source =
      "class Adapter final : public NodeProgram {\n"
      "  bool snapshot(std::vector<std::int64_t>& words) const override {\n"
      "    return inner_->snapshot(words);\n"
      "  }\n"
      "  std::size_t next_round_ = 0;\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/net/foo.cpp", source).empty());
}

TEST(Qlint, UnsnapshottedStateInlineSuppression) {
  std::string source =
      "class C final : public NodeProgram {\n"
      "  bool snapshot(std::vector<std::int64_t>& words) const override {\n"
      "    words = {sum_};\n"
      "    return true;\n"
      "  }\n"
      "  std::int64_t sum_ = 0;\n"
      "  std::size_t rounds_ = 0;  // qlint-allow(unsnapshotted-state): config\n"
      "};\n";
  EXPECT_TRUE(lint_source("src/net/foo.cpp", source).empty());
}

TEST(Qlint, PlainNodeProgramUsesAreNotABaseClause) {
  // Mentioning the type is not deriving from it: factories, containers, and
  // the base class definition itself must stay exempt.
  std::string source =
      "class NodeProgram {\n"
      "  virtual bool snapshot(std::vector<std::int64_t>& words) const {\n"
      "    return false;\n"
      "  }\n"
      "};\n"
      "std::vector<std::unique_ptr<NodeProgram>> programs_;\n";
  EXPECT_TRUE(lint_source("src/net/foo.cpp", source).empty());
}

// --- suppression -------------------------------------------------------------

TEST(Qlint, InlineSuppressionSilencesRule) {
  EXPECT_TRUE(lint_source("src/net/foo.cpp",
                          "srand(42);  // qlint-allow(banned-random): fixture\n")
                  .empty());
  // Suppressing a different rule does not help.
  EXPECT_TRUE(flags(lint_source("src/net/foo.cpp",
                                "srand(42);  // qlint-allow(float-equal): wrong\n"),
                    "banned-random"));
}

TEST(Qlint, AllowlistByRuleAndPath) {
  LintConfig config;
  config.allow.push_back("banned-random:src/net/legacy");
  EXPECT_TRUE(lint_source("src/net/legacy_seed.cpp", "srand(42);\n", config).empty());
  EXPECT_TRUE(
      flags(lint_source("src/net/other.cpp", "srand(42);\n", config), "banned-random"));
}

TEST(Qlint, AllowlistWildcardAndLineNeedle) {
  LintConfig wildcard;
  wildcard.allow.push_back("*:src/net/foo.cpp");
  EXPECT_TRUE(lint_source("src/net/foo.cpp", "srand(42);\n", wildcard).empty());

  LintConfig needle;
  needle.allow.push_back("banned-random:src/net:srand(42)");
  EXPECT_TRUE(lint_source("src/net/foo.cpp", "srand(42);\n", needle).empty());
  EXPECT_TRUE(
      flags(lint_source("src/net/foo.cpp", "srand(7);\n", needle), "banned-random"));
}

TEST(Qlint, LoadAllowlistParsesEntriesAndComments) {
  std::string path = testing::TempDir() + "qlint_allow_test.txt";
  {
    std::ofstream out(path);
    out << "# comment line\n";
    out << "\n";
    out << "banned-random:src/net/legacy  # seed corpus predates util::Rng\n";
    out << "  unordered-iter:src/query  # sorted before use\n";
  }
  LintConfig config = load_allowlist(path);
  ASSERT_EQ(config.allow.size(), 2u);
  EXPECT_EQ(config.allow[0], "banned-random:src/net/legacy");
  EXPECT_EQ(config.allow[1], "unordered-iter:src/query");
  std::remove(path.c_str());
}

TEST(Qlint, LoadAllowlistRejectsEntryWithoutReason) {
  // Every suppression is a debt note: an entry with no trailing `# reason`
  // is a configuration error, not a silent wildcard.
  std::string path = testing::TempDir() + "qlint_allow_noreason.txt";
  {
    std::ofstream out(path);
    out << "banned-random:src/net/legacy\n";
  }
  EXPECT_THROW(load_allowlist(path), std::invalid_argument);
  {
    std::ofstream out(path);
    out << "banned-random:src/net/legacy  #\n";  // empty reason is no reason
  }
  EXPECT_THROW(load_allowlist(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Qlint, InlineSuppressionWithoutReasonDoesNotSuppress) {
  auto d = lint_source("src/net/foo.cpp", "srand(42);  // qlint-allow(banned-random)\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "banned-random");
  EXPECT_NE(d[0].message.find("without ': reason'"), std::string::npos);
}

// --- tokenizer regressions ---------------------------------------------------
// Each of these reproduces a misfire of the old line-regex engine; the token
// stream must get them right.

TEST(QlintRegression, RawStringContentsCannotTriggerRules) {
  // Old engine: strip_noise did not understand raw-string delimiters, so the
  // inner quote "closed" the string and exposed rand() — a false positive.
  std::string source =
      "const char* kDoc = R\"doc(the \" quote exposes rand() here)doc\";\n";
  EXPECT_TRUE(lint_source("src/net/foo.cpp", source).empty());
}

TEST(QlintRegression, StringSplicedAcrossLinesCannotTriggerRules) {
  // Old engine: in_string state was per-line, so the continuation line of a
  // backslash-newline string was scanned as code and std::thread flagged —
  // a false positive.
  std::string source =
      "const char* kMsg = \"never use \\\nstd::thread in this repo\";\n";
  EXPECT_TRUE(lint_source("src/net/foo.cpp", source).empty());
}

TEST(QlintRegression, MultiLineUnorderedDeclarationIsCollected) {
  // Old engine: collect_unordered_names only matched single-line
  // declarations, so a wrapped declaration escaped the iteration check —
  // a false negative.
  std::string source =
      "std::unordered_map<std::string,\n"
      "                   std::vector<int>> table_;\n"
      "void f() {\n"
      "  for (const auto& e : table_) {}\n"
      "}\n";
  auto names = collect_unordered_names(source);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "table_");
  EXPECT_TRUE(flags(lint_source("src/net/foo.cpp", source), "unordered-iter"));
}

TEST(QlintRegression, LeadingDotFloatLiteralIsCaught) {
  // Old engine: the float-literal regex required a leading digit, so
  // `x == .5` slipped through — a false negative.
  EXPECT_TRUE(flags(lint_source("src/quantum/foo.cpp", "if (x == .5) {}\n"),
                    "float-equal"));
}

// --- cross-TU symbol index ---------------------------------------------------

TEST(QlintSymbolIndex, NamesFlowAlongIncludeEdgesTransitively) {
  SymbolIndex index;
  index.add_file("src/net/graph.hpp", "std::unordered_map<int, int> adj_;\n");
  index.add_file("src/net/engine.hpp", "#include \"src/net/graph.hpp\"\n");
  index.add_file("src/net/engine.cpp", "#include \"src/net/engine.hpp\"\n");
  auto names = index.unordered_names_for("src/net/engine.cpp");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "adj_");
  // No include edge, no visibility: the old heuristic leaked every sibling
  // header's members into unrelated files; the index does not.
  EXPECT_TRUE(index.unordered_names_for("src/net/unrelated.cpp").empty());
}

TEST(QlintSymbolIndex, ResolvesIncludeBySuffixUnderAbsoluteRoots) {
  SymbolIndex index;
  index.add_file("/abs/checkout/src/net/graph.hpp",
                 "std::unordered_set<int> seen_;\n");
  index.add_file("/abs/checkout/src/net/engine.cpp",
                 "#include \"src/net/graph.hpp\"\n");
  auto names = index.unordered_names_for("/abs/checkout/src/net/engine.cpp");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "seen_");
}

TEST(QlintSymbolIndex, CollectIncludesSkipsAngleBrackets) {
  auto includes = collect_includes(
      "#include <vector>\n"
      "#include \"src/net/graph.hpp\"\n"
      "#include \"src/util/rng.hpp\"  // comment\n");
  ASSERT_EQ(includes.size(), 2u);
  EXPECT_EQ(includes[0], "src/net/graph.hpp");
  EXPECT_EQ(includes[1], "src/util/rng.hpp");
}

// --- reactor-blocking-call ---------------------------------------------------

TEST(QlintReactor, FlagsSleepInReactorTranslationUnit) {
  auto d = lint_source(
      "src/serve/server.cpp",
      "void Server::poll_once() {\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(10));\n"
      "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "reactor-blocking-call");
  EXPECT_EQ(d[0].line, 2u);
}

TEST(QlintReactor, FlagsJoinAndWaitInReactor) {
  EXPECT_TRUE(flags(lint_source("src/serve/server.cpp", "worker.join();\n"),
                    "reactor-blocking-call"));
  EXPECT_TRUE(flags(lint_source("tools/qcongestd.cpp", "future.wait();\n"),
                    "reactor-blocking-call"));
  EXPECT_TRUE(flags(lint_source("src/serve/server.cpp", "pool->parallel_for(n, f);\n"),
                    "reactor-blocking-call"));
}

TEST(QlintReactor, SleepOutsideReactorScopeClean) {
  // qload is a client: it may sleep between retries. Only the reactor
  // translation units are gated.
  EXPECT_TRUE(lint_source("tools/qload.cpp",
                          "std::this_thread::sleep_for(delay);\n")
                  .empty());
  EXPECT_TRUE(
      lint_source("src/serve/service.cpp", "worker.join();\n").empty());
}

// --- lock-across-submit ------------------------------------------------------

TEST(QlintLock, FlagsSubmitUnderLockGuard) {
  auto d = lint_source(
      "src/serve/service.cpp",
      "void f() {\n"
      "  std::lock_guard<std::mutex> lock(mutex_);\n"
      "  pool_->submit(task);\n"
      "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "lock-across-submit");
  EXPECT_EQ(d[0].line, 3u);
}

TEST(QlintLock, SubmitAfterGuardScopeClosesClean) {
  EXPECT_TRUE(lint_source("src/serve/service.cpp",
                          "void f() {\n"
                          "  {\n"
                          "    std::lock_guard<std::mutex> lock(mutex_);\n"
                          "    ++depth_;\n"
                          "  }\n"
                          "  pool_->submit(task);\n"
                          "}\n")
                  .empty());
}

TEST(QlintLock, SubmitAfterExplicitUnlockClean) {
  EXPECT_TRUE(lint_source("src/serve/service.cpp",
                          "void f() {\n"
                          "  std::unique_lock<std::mutex> lock(mutex_);\n"
                          "  ++depth_;\n"
                          "  lock.unlock();\n"
                          "  pool_->submit(task);\n"
                          "}\n")
                  .empty());
}

TEST(QlintLock, FlagsWaitOnForeignLockWhileSecondGuardHeld) {
  auto d = lint_source(
      "src/util/foo.cpp",
      "void f() {\n"
      "  std::unique_lock<std::mutex> a(m1_);\n"
      "  std::lock_guard<std::mutex> b(m2_);\n"
      "  cv_.wait(a, [&] { return ready_; });\n"
      "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "lock-across-submit");
  EXPECT_EQ(d[0].line, 4u);
}

TEST(QlintLock, WaitOnItsOwnLockClean) {
  // The canonical worker-loop shape: the wait releases exactly the lock it
  // is handed, and no other guard is held.
  EXPECT_TRUE(lint_source("src/util/foo.cpp",
                          "void f() {\n"
                          "  std::unique_lock<std::mutex> lock(mutex_);\n"
                          "  cv_.wait(lock, [&] { return !tasks_.empty(); });\n"
                          "}\n")
                  .empty());
}

// --- untrusted-narrowing -----------------------------------------------------

TEST(QlintNarrowing, FlagsUncheckedNarrowingCastOfWireValue) {
  auto d = lint_source("src/serve/foo.cpp",
                       "void f(const std::uint8_t* p) {\n"
                       "  std::uint64_t v = get_u32(p);\n"
                       "  int t = static_cast<int>(v);\n"
                       "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "untrusted-narrowing");
  EXPECT_EQ(d[0].line, 3u);
}

TEST(QlintNarrowing, BoundCheckBeforeCastClean) {
  EXPECT_TRUE(lint_source("src/serve/foo.cpp",
                          "void f(const std::uint8_t* p) {\n"
                          "  std::uint64_t v = get_u32(p);\n"
                          "  if (v > kMaxTimeout) return;\n"
                          "  int t = static_cast<int>(v);\n"
                          "}\n")
                  .empty());
}

TEST(QlintNarrowing, FlagsUncheckedArithmeticOnWireLength) {
  auto d = lint_source("src/serve/foo.cpp",
                       "void f(const std::uint8_t* h) {\n"
                       "  std::size_t length = get_u32(h + 4);\n"
                       "  need_ = kHeaderBytes + length;\n"
                       "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "untrusted-narrowing");
  EXPECT_EQ(d[0].line, 3u);
}

TEST(QlintNarrowing, BoundCheckedLengthArithmeticClean) {
  // The FrameReader shape: reject oversized lengths first, then size things.
  EXPECT_TRUE(lint_source("src/serve/foo.cpp",
                          "void f(const std::uint8_t* h) {\n"
                          "  std::size_t length = get_u32(h + 4);\n"
                          "  if (length > max_payload_) return;\n"
                          "  need_ = kHeaderBytes + length;\n"
                          "}\n")
                  .empty());
}

TEST(QlintNarrowing, ReparsingRetaintsACheckedVariable) {
  // The qload regression: `value` was bound-checked for --port, then reused
  // for --timeout-ms with only a zero check — the old check must not carry
  // over to the re-parsed value.
  auto d = lint_source("tools/qload.cpp",
                       "int f(const std::string& a, const std::string& b) {\n"
                       "  std::uint64_t value = 0;\n"
                       "  if (!parse_u64(a, &value) || value > 65535) return 2;\n"
                       "  int port = static_cast<int>(value);\n"
                       "  if (!parse_u64(b, &value) || value == 0) return 2;\n"
                       "  int timeout = static_cast<int>(value);\n"
                       "  return port + timeout;\n"
                       "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "untrusted-narrowing");
  EXPECT_EQ(d[0].line, 6u);
}

TEST(QlintNarrowing, MinClampCountsAsBound) {
  EXPECT_TRUE(lint_source("src/serve/foo.cpp",
                          "void f(const std::uint8_t* p) {\n"
                          "  std::uint64_t v = get_u16(p);\n"
                          "  int t = static_cast<int>(std::min(v, kCap));\n"
                          "}\n")
                  .empty());
}

TEST(QlintNarrowing, TrustedPathsAreOutOfScope) {
  // Only the wire/service layer and its CLIs parse untrusted input.
  EXPECT_TRUE(lint_source("src/net/engine.cpp",
                          "std::uint64_t v = get_u32(p);\n"
                          "int t = static_cast<int>(v);\n")
                  .empty());
}

// --- catch-all-swallow -------------------------------------------------------

TEST(QlintCatch, FlagsSilentCatchAll) {
  auto d = lint_source("src/serve/foo.cpp",
                       "void f() {\n"
                       "  try {\n"
                       "    g();\n"
                       "  } catch (...) {\n"
                       "  }\n"
                       "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "catch-all-swallow");
  EXPECT_EQ(d[0].line, 4u);
}

TEST(QlintCatch, RethrowAndCaptureAndReportAreClean) {
  EXPECT_TRUE(lint_source("src/serve/foo.cpp",
                          "void f() {\n"
                          "  try { g(); } catch (...) { throw; }\n"
                          "}\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/net/foo.cpp",
                          "void f() {\n"
                          "  try { g(); } catch (...) { err_ = std::current_exception(); }\n"
                          "}\n")
                  .empty());
  // The job-runner boundary: converting to a structured outcome counts.
  EXPECT_TRUE(lint_source("src/serve/job.cpp",
                          "void f(obs::RunReport& report) {\n"
                          "  try { g(); } catch (...) {\n"
                          "    report.set_outcome(false);\n"
                          "    report.set_label(\"exception\");\n"
                          "  }\n"
                          "}\n")
                  .empty());
}

TEST(QlintCatch, ReasonedAllowSuppressesDesignedBoundary) {
  EXPECT_TRUE(
      lint_source("src/util/foo.cpp",
                  "void f() {\n"
                  "  try { g(); } catch (...) {  // qlint-allow(catch-all-swallow): tallied by caller\n"
                  "    threw = true;\n"
                  "  }\n"
                  "}\n")
          .empty());
}

// --- hot-path-alloc ----------------------------------------------------------

TEST(QlintHotPath, FlagsUnreservedPushBackInDeliver) {
  auto d = lint_source("src/net/engine.cpp",
                       "void Engine::deliver(NodeId from, NodeId to, Word w) {\n"
                       "  extra_.push_back(w);\n"
                       "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "hot-path-alloc");
  EXPECT_EQ(d[0].line, 2u);
}

TEST(QlintHotPath, ReservedReceiverIsClean) {
  // A reserve anywhere in the TU marks the vector capacity-managed: its
  // steady-state push_back is a bump, which is the sanctioned pattern.
  EXPECT_TRUE(lint_source("src/net/engine.cpp",
                          "void Engine::prepare(std::size_t n) {\n"
                          "  extra_.reserve(n);\n"
                          "}\n"
                          "void Engine::deliver(NodeId from, NodeId to, Word w) {\n"
                          "  extra_.push_back(w);\n"
                          "}\n")
                  .empty());
}

TEST(QlintHotPath, FlagsNewAndStdFunctionInKernels) {
  EXPECT_TRUE(flags(lint_source("src/quantum/kernels_avx2.cpp",
                                "void f() { auto* p = new double[8]; }\n"),
                    "hot-path-alloc"));
  EXPECT_TRUE(flags(lint_source("src/quantum/kernels.cpp",
                                "void g() { std::function<void()> cb = h; }\n"),
                    "hot-path-alloc"));
}

TEST(QlintHotPath, FlagsAllocationInCircuitApplyTo) {
  // The pairing loop runs once per op of every Grover iterate; building a
  // circuit (Circuit::gate) is cold setup in the same translation unit.
  auto d = lint_source("src/quantum/circuit.cpp",
                       "Circuit& Circuit::gate(const Gate1& g, unsigned t) {\n"
                       "  ops_.push_back(Op{g, {}, t, 0});\n"
                       "  return *this;\n"
                       "}\n"
                       "std::size_t Circuit::apply_to(Statevector& s) const {\n"
                       "  std::vector<unsigned>* seen = new std::vector<unsigned>;\n"
                       "  return 0;\n"
                       "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "hot-path-alloc");
  EXPECT_EQ(d[0].line, 6u);
}

TEST(QlintHotPath, FlagsAllocationInStatevectorRunEntries) {
  // apply_run is every uncontrolled gate's entry and h_all's ranged layer
  // runs once per H layer; a heap buffer for the run's steps would cost an
  // allocator round-trip per kernel call. Both sit in the same translation
  // unit as the allocating constructor, which is cold.
  auto d = lint_source("src/quantum/statevector.cpp",
                       "Statevector::Statevector(unsigned n) {\n"
                       "  amplitudes_.push_back(Amplitude{1, 0});\n"
                       "}\n"
                       "void Statevector::apply_run(std::span<const TargetedGate> run) {\n"
                       "  auto steps = std::make_unique<kernels::RealStep[]>(run.size());\n"
                       "}\n"
                       "void Statevector::h_all(unsigned first, unsigned count) {\n"
                       "  std::vector<TargetedGate>* run = new std::vector<TargetedGate>;\n"
                       "}\n");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].rule, "hot-path-alloc");
  EXPECT_EQ(d[0].line, 5u);
  EXPECT_EQ(d[1].rule, "hot-path-alloc");
  EXPECT_EQ(d[1].line, 8u);
}

TEST(QlintHotPath, FlagsAllocationInStatevectorWiden) {
  // Widening turns the packed reals into complex amplitudes in place; a
  // second buffer there would double the state's peak memory.
  auto d = lint_source("src/quantum/statevector.cpp",
                       "void Statevector::widen() {\n"
                       "  auto wide = std::make_unique<Amplitude[]>(dim);\n"
                       "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "hot-path-alloc");
  EXPECT_EQ(d[0].line, 2u);
}

TEST(QlintHotPath, FlagsAllocationInReliableTransmit) {
  // The reliable transport's wrapper runs transmit once per node per
  // physical round; its per-run setup (initialize) sits in the same
  // translation unit and allocates freely.
  auto d = lint_source("src/net/reliable.cpp",
                       "void ReliableProgram::initialize(Context& ctx) {\n"
                       "  links_.push_back(ctx.id());\n"
                       "}\n"
                       "void ReliableProgram::transmit(Context& ctx) {\n"
                       "  auto frame = std::make_unique<Word>();\n"
                       "}\n");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].rule, "hot-path-alloc");
  EXPECT_EQ(d[0].line, 5u);
}

TEST(QlintHotPath, ColdEngineSetupAllocatesFreely) {
  // set_fault_plan is per-run setup, not the round loop: unreserved growth
  // there is outside the rule's hot-function list.
  EXPECT_TRUE(lint_source("src/net/engine.cpp",
                          "void Engine::set_fault_plan(FaultPlan plan) {\n"
                          "  schedules_.push_back(plan);\n"
                          "}\n")
                  .empty());
}

TEST(QlintHotPath, OtherTranslationUnitsAreOutOfScope) {
  EXPECT_TRUE(lint_source("src/framework/oracle.cpp",
                          "void f() { values_.push_back(1); }\n")
                  .empty());
}

TEST(QlintHotPath, ReasonedAllowSuppressesColdBranch) {
  EXPECT_TRUE(
      lint_source("src/net/engine.cpp",
                  "void Engine::commit(NodeId f, NodeId t, const Word& w) {\n"
                  "  log_.push_back(w);  // qlint-allow(hot-path-alloc): observer-only branch, off in benchmarks\n"
                  "}\n")
          .empty());
}

// --- unchecked-io-result -----------------------------------------------------

TEST(QlintIoResult, FlagsBareWriteAndFsyncInPersistencePaths) {
  auto d = lint_source("src/serve/journal.cpp",
                       "void f(int fd, const char* p, size_t n) {\n"
                       "  write(fd, p, n);\n"
                       "  ::fsync(fd);\n"
                       "}\n");
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].rule, "unchecked-io-result");
  EXPECT_EQ(d[0].line, 2u);
  EXPECT_EQ(d[1].line, 3u);
  EXPECT_TRUE(flags(lint_source("src/cache/store.cpp",
                                "void g() { rename(\"a.tmp\", \"a\"); }\n"),
                    "unchecked-io-result"));
  EXPECT_TRUE(flags(lint_source("src/serve/journal.cpp",
                                "void h(int fd) { ::ftruncate(fd, 0); }\n"),
                    "unchecked-io-result"));
}

TEST(QlintIoResult, VoidCastIsStillADiscard) {
  EXPECT_TRUE(flags(lint_source("src/serve/journal.cpp",
                                "void f(int fd) { (void)::fsync(fd); }\n"),
                    "unchecked-io-result"));
}

TEST(QlintIoResult, CheckedResultsAreClean) {
  EXPECT_TRUE(lint_source("src/serve/journal.cpp",
                          "bool f(int fd, const char* p, size_t n) {\n"
                          "  ssize_t w = ::write(fd, p, n);\n"
                          "  if (::fsync(fd) != 0) return false;\n"
                          "  while (::fdatasync(fd) != 0) {}\n"
                          "  return w >= 0 && rename(\"a\", \"b\") == 0;\n"
                          "}\n")
                  .empty());
}

TEST(QlintIoResult, MemberAndNamespacedCallsAreOutOfScope) {
  // fs::rename reports through an error_code (or throws); stream .write
  // carries its state in the stream. Neither is a POSIX result carrier.
  EXPECT_TRUE(lint_source("src/cache/store.cpp",
                          "void f(std::ofstream& out, const std::string& b) {\n"
                          "  out.write(b.data(), 1);\n"
                          "  fs::rename(\"a.tmp\", \"a\", ec);\n"
                          "}\n")
                  .empty());
}

TEST(QlintIoResult, OtherTreesAndReasonedAllowsAreClean) {
  EXPECT_TRUE(lint_source("src/net/transport.cpp",
                          "void f(int fd) { ::fsync(fd); }\n")
                  .empty());
  EXPECT_TRUE(
      lint_source("src/serve/journal.cpp",
                  "void f(int fd) {\n"
                  "  ::fsync(fd);  // qlint-allow(unchecked-io-result): best-effort flush before abort\n"
                  "}\n")
          .empty());
}

// --- rule metadata & SARIF ---------------------------------------------------

TEST(QlintMeta, RuleInfosCoverTwelveRulesWithUniqueIds) {
  const auto& rules = rule_infos();
  ASSERT_EQ(rules.size(), 12u);
  std::vector<std::string> ids;
  for (const auto& rule : rules) {
    ids.push_back(rule.id);
    EXPECT_NE(rule.summary[0], '\0');
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), "reactor-blocking-call"));
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), "lock-across-submit"));
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), "untrusted-narrowing"));
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), "catch-all-swallow"));
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), "hot-path-alloc"));
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), "unchecked-io-result"));
}

TEST(QlintMeta, SarifOutputIsValidJsonWithRuleMetadata) {
  LintDiagnostic diag;
  diag.file = "src/serve/server.cpp";
  diag.line = 42;
  diag.rule = "reactor-blocking-call";
  diag.message = "a \"quoted\" message\nwith a newline";
  std::string sarif = render_sarif({diag});
  std::string error;
  EXPECT_TRUE(obs::json_valid(sarif, &error)) << error;
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"qlint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"reactor-blocking-call\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 42"), std::string::npos);
  // Every rule is listed in the driver metadata even when only one fires.
  EXPECT_NE(sarif.find("\"untrusted-narrowing\""), std::string::npos);
}

TEST(QlintMeta, SarifWithNoDiagnosticsIsValid) {
  std::string sarif = render_sarif({});
  std::string error;
  EXPECT_TRUE(obs::json_valid(sarif, &error)) << error;
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
}

// --- repo gate ---------------------------------------------------------------

TEST(Qlint, RepoSourceTreeIsClean) {
  // The same gate CI runs: every tree qlint covers must lint clean — the
  // negative case for every rule is the shipped code itself.
  std::string base = QCONGEST_SOURCE_DIR;
  std::ifstream probe(base + "/src/check/lint.hpp");
  if (!probe.good()) GTEST_SKIP() << "source tree not present at " << base;
  LintResult result =
      lint_trees({base + "/src", base + "/tools", base + "/bench", base + "/tests"});
  std::string all;
  for (const auto& d : result.diagnostics) all += d.to_string() + "\n";
  EXPECT_TRUE(result.diagnostics.empty()) << all;
  EXPECT_GT(result.files_scanned, 150u);
}

}  // namespace
}  // namespace qcongest::check
