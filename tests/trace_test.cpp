#include <gtest/gtest.h>

#include <algorithm>

#include "src/net/bfs.hpp"
#include "src/net/generators.hpp"
#include "src/net/pipeline.hpp"
#include "src/net/trace.hpp"

namespace qcongest::net {
namespace {

TEST(Trace, RecordsEveryDelivery) {
  Graph g = path_graph(5);
  Engine engine(g);
  Trace trace;
  engine.set_observers({&trace});
  BfsTree tree = build_bfs_tree(engine, 0);
  EXPECT_EQ(trace.size(), tree.cost.messages);
  // Rounds in the trace are consistent with the measured round count.
  for (const TraceEvent& e : trace.events()) {
    EXPECT_LT(e.round, tree.cost.rounds + 1);
    EXPECT_TRUE(g.has_edge(e.from, e.to));
  }
}

TEST(Trace, PerRoundCountsSumToTotal) {
  Graph g = star_graph(8);
  Engine engine(g);
  Trace trace;
  engine.set_observers({&trace});
  BfsTree tree = build_bfs_tree(engine, 0);
  auto down = pipelined_downcast(engine, tree, {1, 2, 3, 4}, true);
  std::size_t total = 0;
  for (std::size_t c : trace.per_round_counts()) total += c;
  EXPECT_EQ(total, trace.size());
  EXPECT_EQ(trace.size(), tree.cost.messages + down.cost.messages);
}

TEST(Trace, BusiestEdgesAndTags) {
  Graph g = path_graph(4);
  Engine engine(g);
  Trace trace;
  engine.set_observers({&trace});
  BfsTree tree = build_bfs_tree(engine, 0);
  trace.clear();
  (void)pipelined_downcast(engine, tree, {1, 2, 3, 4, 5}, false);
  auto busiest = trace.busiest_edges(2);
  ASSERT_EQ(busiest.size(), 2u);
  EXPECT_EQ(busiest[0].second, 5u);  // every tree edge carries 5 words
  auto tags = trace.per_tag_counts();
  EXPECT_EQ(tags.size(), 1u);  // only the downcast tag
  EXPECT_EQ(tags.begin()->second, 15u);  // 3 edges x 5 words
}

TEST(Trace, TimelineRenders) {
  Graph g = path_graph(3);
  Engine engine(g);
  Trace trace;
  engine.set_observers({&trace});
  (void)build_bfs_tree(engine, 0);
  std::string timeline = trace.render_timeline(20);
  EXPECT_NE(timeline.find("r0 |"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);
  // Detaching stops recording.
  engine.set_observers({});
  std::size_t before = trace.size();
  (void)build_bfs_tree(engine, 0);
  EXPECT_EQ(trace.size(), before);
  // Null entries are skipped: the trace behind one records again.
  engine.set_observers({nullptr, &trace});
  BfsTree again = build_bfs_tree(engine, 0);
  EXPECT_EQ(trace.size(), before + again.cost.messages);
}

TEST(Trace, EdgeTotalsFeedDotExport) {
  Graph g = path_graph(3);
  Engine engine(g);
  Trace trace;
  engine.set_observers({&trace});
  BfsTree tree = build_bfs_tree(engine, 0);
  (void)pipelined_downcast(engine, tree, {1, 2}, false);
  auto totals = trace.edge_totals();
  EXPECT_EQ(totals.size(), 2u);  // both path edges used
  std::string dot = g.to_dot(&totals);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1 [label="), std::string::npos);
  EXPECT_NE(dot.find("n1 -- n2 [label="), std::string::npos);
}

TEST(Trace, DotExportWithoutLabels) {
  Graph g = cycle_graph(4);
  std::string dot = g.to_dot();
  EXPECT_NE(dot.find("n0 -- n1;"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n3;"), std::string::npos);
  // Each undirected edge exactly once.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '-') / 2, 4);
}

TEST(Trace, EmptyTraceBehaves) {
  Trace trace;
  EXPECT_TRUE(trace.per_round_counts().empty());
  EXPECT_TRUE(trace.busiest_edges(3).empty());
  EXPECT_EQ(trace.render_timeline(), "");
}

TEST(Trace, BusiestEdgesBreaksTiesByEndpoints) {
  // Four directed edges, all with the same count: the result must come back
  // sorted by (from, to) ascending, independent of recording order.
  // Regression test — the old comparator only ordered by count, leaving tied
  // edges in whatever order the sort left them.
  Trace trace;
  for (auto [from, to] : {std::pair<NodeId, NodeId>{3, 1},
                          {0, 2},
                          {1, 0},
                          {0, 1}}) {
    trace.record({/*round=*/0, from, to, /*tag=*/7, /*quantum=*/false});
    trace.record({/*round=*/1, from, to, /*tag=*/7, /*quantum=*/false});
  }
  auto busiest = trace.busiest_edges(4);
  ASSERT_EQ(busiest.size(), 4u);
  std::vector<std::pair<NodeId, NodeId>> order;
  for (const auto& [edge, count] : busiest) {
    EXPECT_EQ(count, 2u);
    order.push_back(edge);
  }
  std::vector<std::pair<NodeId, NodeId>> expected = {{0, 1}, {0, 2}, {1, 0}, {3, 1}};
  EXPECT_EQ(order, expected);
  // A higher-count edge still sorts first regardless of endpoints.
  trace.record({/*round=*/2, 9, 9, /*tag=*/7, /*quantum=*/false});
  trace.record({/*round=*/2, 9, 9, /*tag=*/7, /*quantum=*/false});
  trace.record({/*round=*/3, 9, 9, /*tag=*/7, /*quantum=*/false});
  auto with_peak = trace.busiest_edges(1);
  ASSERT_EQ(with_peak.size(), 1u);
  EXPECT_EQ(with_peak[0].first, (std::pair<NodeId, NodeId>{9, 9}));
  EXPECT_EQ(with_peak[0].second, 3u);
}

TEST(Trace, TimelineHandlesSilentRounds) {
  // Events only in round 2: rounds 0 and 1 must still render, with empty
  // bars, and the round-2 bar is scaled to the peak.
  Trace trace;
  trace.record({/*round=*/2, 0, 1, /*tag=*/1, /*quantum=*/false});
  trace.record({/*round=*/2, 1, 2, /*tag=*/1, /*quantum=*/false});
  auto counts = trace.per_round_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 2u);
  std::string timeline = trace.render_timeline(10);
  EXPECT_NE(timeline.find("r0 | 0\n"), std::string::npos);
  EXPECT_NE(timeline.find("r1 | 0\n"), std::string::npos);
  EXPECT_NE(timeline.find("r2 |########## 2\n"), std::string::npos);
}

TEST(Trace, EdgeTotalsMergeBothDirections) {
  // Traffic in both directions over the same physical edge lands in one
  // undirected (min, max) bucket.
  Trace trace;
  trace.record({/*round=*/0, 0, 1, /*tag=*/1, /*quantum=*/false});
  trace.record({/*round=*/0, 1, 0, /*tag=*/1, /*quantum=*/false});
  trace.record({/*round=*/1, 1, 0, /*tag=*/1, /*quantum=*/false});
  trace.record({/*round=*/1, 2, 1, /*tag=*/1, /*quantum=*/false});
  auto totals = trace.edge_totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ((totals.at({0, 1})), 3u);
  EXPECT_EQ((totals.at({1, 2})), 1u);
}

}  // namespace
}  // namespace qcongest::net
