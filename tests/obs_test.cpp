// Unit tests for the observability layer (src/obs): the JSON writer and
// validator, the deterministic metrics registry, the round profiler, and
// the run-report round trip.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/net/bfs.hpp"
#include "src/net/generators.hpp"
#include "src/net/pipeline.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/round_profiler.hpp"
#include "src/obs/run_report.hpp"

namespace qcongest::obs {
namespace {

// --- JSON ------------------------------------------------------------------

TEST(Json, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Json, EscapesEveryControlCharacter) {
  // Regression test: \b and \f get their RFC 8259 short forms, everything
  // else below 0x20 a \u00XX escape — including U+0000, which must never
  // truncate the output.
  EXPECT_EQ(json_escape(std::string_view("\b\f", 2)), "\\b\\f");
  EXPECT_EQ(json_escape(std::string_view("\0", 1)), "\\u0000");
  for (int c = 0; c < 0x20; ++c) {
    const char byte = static_cast<char>(c);
    const std::string escaped = json_escape(std::string_view(&byte, 1));
    EXPECT_GE(escaped.size(), 2u) << "control char " << c << " passed raw";
    EXPECT_EQ(escaped[0], '\\') << "control char " << c;
    const std::string doc = "{\"k\": \"" + escaped + "\"}";
    EXPECT_TRUE(json_valid(doc)) << "control char " << c;
  }
}

TEST(Json, PassesWellFormedUtf8Through) {
  // é (2 bytes), ∑ (3 bytes), 𝄞 (4 bytes) survive byte-for-byte.
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
  EXPECT_EQ(json_escape("\xe2\x88\x91"), "\xe2\x88\x91");
  EXPECT_EQ(json_escape("\xf0\x9d\x84\x9e"), "\xf0\x9d\x84\x9e");
  EXPECT_TRUE(json_valid("\"caf\xc3\xa9\""));
}

TEST(Json, ReplacesMalformedUtf8) {
  // Each malformed byte becomes an escaped U+FFFD — never raw passthrough
  // (which used to emit invalid-UTF-8 documents strict parsers reject).
  EXPECT_EQ(json_escape("\x80"), "\\ufffd");           // stray continuation
  EXPECT_EQ(json_escape("\xff"), "\\ufffd");           // invalid lead
  EXPECT_EQ(json_escape("\xc3"), "\\ufffd");           // truncated sequence
  EXPECT_EQ(json_escape("\xc0\xaf"), "\\ufffd\\ufffd");  // overlong '/'
  EXPECT_EQ(json_escape("\xed\xa0\x80"), "\\ufffd\\ufffd\\ufffd");  // surrogate
  // Resynchronizes: valid text on both sides of the bad byte survives.
  EXPECT_EQ(json_escape("a\x80z"), "a\\ufffdz");
  const std::string doc = "{\"k\": \"" + json_escape("\xfe\xc3(") + "\"}";
  EXPECT_TRUE(json_valid(doc));
}

TEST(Json, ValidatorRejectsMalformedUtf8Strings) {
  EXPECT_TRUE(json_valid("\"caf\xc3\xa9\""));
  std::string error;
  EXPECT_FALSE(json_valid("\"\x80\"", &error));
  EXPECT_NE(error.find("UTF-8"), std::string::npos);
  EXPECT_FALSE(json_valid("\"\xc0\xaf\""));        // overlong
  EXPECT_FALSE(json_valid("\"\xed\xa0\x80\""));    // surrogate
  EXPECT_FALSE(json_valid("\"\xf4\x90\x80\x80\""));  // above U+10FFFF
  EXPECT_FALSE(json_valid("\"\xc3\""));            // truncated at close quote
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  // Regression test: NaN / ±Inf used to be printed raw into BENCH_*.json,
  // producing documents no JSON parser would accept.
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.0), "0");
  // A document embedding the rendered token must stay valid JSON.
  std::string doc = "{\"x\": " + json_number(std::nan("")) + "}";
  EXPECT_TRUE(json_valid(doc));
}

TEST(Json, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid("[1, 2.5, -3e4, \"s\", true, false, null]"));
  EXPECT_TRUE(json_valid("{\"a\": {\"b\": [{}]}}"));
  std::string error;
  EXPECT_FALSE(json_valid("", &error));
  EXPECT_FALSE(json_valid("{\"a\": }", &error));
  EXPECT_FALSE(json_valid("[1, 2,]", &error));
  EXPECT_FALSE(json_valid("{\"a\": 1} trailing", &error));
  EXPECT_FALSE(json_valid("{\"a\": NaN}", &error));
  EXPECT_FALSE(json_valid("\"unterminated", &error));
  EXPECT_FALSE(error.empty());
}

TEST(Json, WriterProducesValidDocuments) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("text").value("with \"quotes\"");
  writer.key("flag").value(true);
  writer.key("int").value(std::int64_t{-7});
  writer.key("big").value(std::uint64_t{18446744073709551615ull});
  writer.key("ratio").value(0.25);
  writer.key("none").null();
  writer.key("list").begin_array().value(1).value(2).end_array();
  writer.key("nested").begin_object().end_object();
  writer.end_object();
  std::string error;
  EXPECT_TRUE(json_valid(writer.str(), &error)) << error;
  EXPECT_NE(writer.str().find("\"big\": 18446744073709551615"), std::string::npos);
  EXPECT_NE(writer.str().find("\"none\": null"), std::string::npos);
}

TEST(Json, WriterRoundTripsThroughValidator) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("series").begin_array();
  for (int i = 0; i < 4; ++i) writer.value(i);
  writer.end_array();
  writer.key("nan").value(std::nan(""));
  writer.key("label").value("ok");
  writer.end_object();
  EXPECT_EQ(writer.non_finite_values(), 1u);
  std::string error;
  EXPECT_TRUE(json_valid(writer.str(), &error)) << error;
  EXPECT_NE(writer.str().find("\"nan\": null"), std::string::npos);
}

// --- Metrics ---------------------------------------------------------------

TEST(Metrics, HistogramBucketsIncludingOverflow) {
  Histogram h({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0}) h.observe(v);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);  // 0.5, 1.0  (<= 1)
  EXPECT_EQ(h.bucket_counts()[1], 2u);  // 1.5, 2.0  (<= 2)
  EXPECT_EQ(h.bucket_counts()[2], 2u);  // 3.0, 4.0  (<= 4)
  EXPECT_EQ(h.bucket_counts()[3], 1u);  // 100.0     (overflow)
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 112.0);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, RegistryCountersAndGauges) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.counter("missing"), 0u);
  registry.count("runs");
  registry.count("runs", 4);
  registry.set_gauge("ratio", 0.5);
  registry.set_gauge("ratio", 0.75);  // last write wins
  EXPECT_EQ(registry.counter("runs"), 5u);
  EXPECT_DOUBLE_EQ(registry.gauges().at("ratio"), 0.75);
  EXPECT_FALSE(registry.empty());
  registry.clear();
  EXPECT_TRUE(registry.empty());
}

TEST(Metrics, RegistryHistogramBoundsArePinned) {
  MetricsRegistry registry;
  registry.histogram("lat", {1.0, 2.0}).observe(1.5);
  registry.histogram("lat", {1.0, 2.0}).observe(3.0);  // same bounds: fine
  EXPECT_THROW(registry.histogram("lat", {1.0, 3.0}), std::invalid_argument);
  ASSERT_NE(registry.find_histogram("lat"), nullptr);
  EXPECT_EQ(registry.find_histogram("lat")->count(), 2u);
  EXPECT_EQ(registry.find_histogram("absent"), nullptr);
}

TEST(Metrics, SnapshotOrderIsInsertionIndependent) {
  // The determinism contract: two registries fed the same facts in
  // different orders serialize byte-identically (std::map, name order).
  MetricsRegistry a;
  a.count("zeta", 3);
  a.count("alpha", 1);
  a.set_gauge("mid", 2.0);
  MetricsRegistry b;
  b.set_gauge("mid", 2.0);
  b.count("alpha", 1);
  b.count("zeta", 3);
  JsonWriter wa, wb;
  a.write_json(wa);
  b.write_json(wb);
  EXPECT_EQ(wa.str(), wb.str());
  EXPECT_TRUE(json_valid(wa.str()));
}

// --- RoundProfiler ---------------------------------------------------------

TEST(RoundProfiler, SeriesMatchesEngineAccounting) {
  net::Graph g = net::path_graph(6);
  net::Engine engine(g);
  RoundProfiler profiler;
  engine.set_observers({&profiler});
  net::BfsTree tree = net::build_bfs_tree(engine, 0);

  std::size_t sent = 0, delivered = 0;
  for (const RoundProfiler::RoundSample& s : profiler.rounds()) {
    sent += s.sent;
    delivered += s.delivered;
  }
  EXPECT_EQ(sent, tree.cost.messages);
  EXPECT_EQ(delivered, tree.cost.messages);  // perfect network: no drops
  EXPECT_EQ(profiler.total_runs(), 1u);
  // The auto span covers the whole run.
  ASSERT_EQ(profiler.phases().size(), 1u);
  EXPECT_EQ(profiler.phases()[0].name, "run#0");
  EXPECT_EQ(profiler.phases()[0].sent, tree.cost.messages);
}

TEST(RoundProfiler, ExplicitPhasesSliceTheTimeline) {
  net::Graph g = net::path_graph(4);
  net::Engine engine(g);
  RoundProfiler profiler;
  engine.set_observers({&profiler});
  net::BfsTree tree = net::build_bfs_tree(engine, 0);
  profiler.reset();

  profiler.begin_phase("down");
  (void)net::pipelined_downcast(engine, tree, {1, 2, 3}, false);
  profiler.begin_phase("down-again");  // implicitly closes "down"
  (void)net::pipelined_downcast(engine, tree, {4}, false);
  profiler.end_phase();

  ASSERT_EQ(profiler.phases().size(), 2u);
  EXPECT_EQ(profiler.phases()[0].name, "down");
  EXPECT_EQ(profiler.phases()[1].name, "down-again");
  EXPECT_EQ(profiler.phases()[0].sent, 9u);  // 3 tree edges x 3 words
  EXPECT_EQ(profiler.phases()[1].sent, 3u);
  // Spans tile the global round axis.
  EXPECT_EQ(profiler.phases()[0].first_round, 0u);
  EXPECT_EQ(profiler.phases()[1].first_round, profiler.phases()[0].rounds);
  EXPECT_EQ(profiler.total_rounds(),
            profiler.phases()[0].rounds + profiler.phases()[1].rounds);
}

TEST(RoundProfiler, SeriesAreThreadCountInvariant) {
  net::Graph g = net::grid_graph(4, 4);
  auto run = [&](std::size_t threads) {
    net::Engine engine(g);
    engine.set_threads(threads);
    RoundProfiler profiler;
    engine.set_observers({&profiler});
    (void)net::build_bfs_tree(engine, 0);
    return profiler.rounds();
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(RoundProfiler, StacksWithAnotherObserverInListOrder) {
  // Both observers on one engine see the whole stream, in list order: a tap
  // installed after the profiler hears of each word once the profiler has
  // counted it, and one installed before hears of it first.
  class Counter final : public net::EngineObserver {
   public:
    explicit Counter(const RoundProfiler& profiler) : profiler_(profiler) {}
    std::size_t sends = 0, runs = 0, profiled_before = 0;
    void on_send(std::size_t, net::NodeId, net::NodeId, const net::Word&,
                 std::size_t) override {
      ++sends;
      std::size_t profiled = 0;
      for (const RoundProfiler::RoundSample& s : profiler_.rounds()) profiled += s.sent;
      if (profiled == sends) ++profiled_before;
    }
    void on_run_end(const net::RunResult&) override { ++runs; }

   private:
    const RoundProfiler& profiler_;
  };
  net::Graph g = net::path_graph(3);
  net::Engine engine(g);
  RoundProfiler profiler;
  Counter after(profiler);
  engine.set_observers({&profiler, &after});
  net::BfsTree tree = net::build_bfs_tree(engine, 0);
  EXPECT_EQ(after.sends, tree.cost.messages);
  EXPECT_EQ(after.runs, 1u);
  EXPECT_EQ(after.profiled_before, after.sends);
  EXPECT_EQ(profiler.total_runs(), 1u);

  RoundProfiler second;
  Counter before(second);
  engine.set_observers({&before, &second});  // replaces the whole list
  (void)net::build_bfs_tree(engine, 0);
  EXPECT_EQ(before.sends, tree.cost.messages);
  EXPECT_EQ(before.profiled_before, 0u);
  EXPECT_EQ(after.runs, 1u);
  EXPECT_EQ(profiler.total_runs(), 1u);
}

// --- RunReport -------------------------------------------------------------

RunReport make_report() {
  net::Graph g = net::path_graph(5);
  net::Engine engine(g);
  net::Trace trace;
  RoundProfiler profiler;
  engine.set_observers({&trace, &profiler});
  net::BfsTree tree = net::build_bfs_tree(engine, 0);

  RunReport report("obs_test");
  RunReport::Section& section = report.add_section("bfs");
  section.set_label("graph", "path");
  section.set_label("nodes", "5");
  section.set_outcome(true);
  section.set_result(tree.cost);
  section.set_trace(trace, 4);
  section.set_profile(profiler);
  MetricsRegistry metrics;
  metrics.count("runs");
  metrics.set_gauge("height", static_cast<double>(tree.height));
  metrics.histogram("msgs", {1.0, 4.0, 16.0}).observe(3.0);
  section.set_metrics(metrics);
  return report;
}

TEST(RunReport, RoundTripsThroughJsonParser) {
  RunReport report = make_report();
  std::string doc = report.to_json();
  std::string error;
  EXPECT_TRUE(json_valid(doc, &error)) << error;
  EXPECT_NE(doc.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"producer\": \"obs_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"deterministic\": true"), std::string::npos);
  EXPECT_NE(doc.find("\"round_series\""), std::string::npos);
  EXPECT_NE(doc.find("\"phases\""), std::string::npos);
  EXPECT_NE(doc.find("\"busiest_edges\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
}

TEST(RunReport, SerializationIsDeterministic) {
  EXPECT_EQ(make_report().to_json(), make_report().to_json());
}

TEST(RunReport, WritesToDiskWithoutThrowing) {
  RunReport report = make_report();
  std::string path = testing::TempDir() + "obs_test_report.json";
  std::string error;
  ASSERT_TRUE(report.write(path, &error)) << error;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), report.to_json());
  EXPECT_TRUE(json_valid(buffer.str()));
  std::remove(path.c_str());
  // Unwritable path: reports failure through the out-param, never throws.
  EXPECT_FALSE(report.write("/nonexistent-dir/x/y.json", &error));
  EXPECT_FALSE(error.empty());
}

TEST(RunReport, EmptySectionsStillValid) {
  RunReport report("empty");
  EXPECT_TRUE(report.empty());
  EXPECT_TRUE(json_valid(report.to_json()));
  report.add_section("bare");
  EXPECT_FALSE(report.empty());
  EXPECT_TRUE(json_valid(report.to_json()));
  report.clear();
  EXPECT_TRUE(report.empty());
}

}  // namespace
}  // namespace qcongest::obs
