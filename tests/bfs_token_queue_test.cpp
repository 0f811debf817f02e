// The BFS token queues against the per-neighbor ordered maps they replaced.
//
// net::multi_source_bfs keeps one min-heap per node and apps::cycle_bfs one
// flat min-heap per neighbor. The reference programs below are the
// per-neighbor std::map outboxes those queues replaced, kept verbatim in
// behaviour: every run must send the same word on the same edge in the same
// round and order, and end with the same distances, parents and candidates.
// The snapshot tests pin MultiBfs's version-2 checkpoint words.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/apps/cycle_detection.hpp"
#include "src/net/engine.hpp"
#include "src/net/generators.hpp"
#include "src/net/multi_bfs.hpp"

namespace qcongest {
namespace {

using net::Context;
using net::Engine;
using net::Graph;
using net::kUnreachable;
using net::Message;
using net::NodeId;
using net::NodeProgram;
using net::Word;

// --- Reference programs: the per-neighbor map outboxes ------------------

constexpr std::int32_t kTagBfsDist = 20;
constexpr std::int32_t kTagCycleToken = 30;

/// MultiBfsProgram with one std::map outbox per neighbor, each relaxation
/// inserted into every one of them.
class RefMultiBfsProgram final : public NodeProgram {
 public:
  RefMultiBfsProgram(const std::vector<NodeId>* sources, std::size_t depth_limit)
      : sources_(sources), depth_limit_(depth_limit) {}

  const std::vector<std::size_t>& dist() const { return dist_; }
  const std::vector<NodeId>& parent() const { return parent_; }

  void on_round(Context& ctx, std::span<const Message> inbox) override {
    if (ctx.round() == 0) {
      dist_.assign(sources_->size(), kUnreachable);
      parent_.assign(sources_->size(), kUnreachable);
      outbox_.resize(ctx.neighbors().size());
      for (std::size_t i = 0; i < sources_->size(); ++i) {
        if ((*sources_)[i] == ctx.id()) relax(ctx, i, 0, kUnreachable);
      }
    }
    for (const Message& m : inbox) {
      if (m.word.tag != kTagBfsDist) continue;
      relax(ctx, static_cast<std::size_t>(m.word.a),
            static_cast<std::size_t>(m.word.b), m.from);
    }
    for (std::size_t ni = 0; ni < ctx.neighbors().size(); ++ni) {
      auto& queue = outbox_[ni];
      std::size_t budget = ctx.bandwidth();
      while (!queue.empty() && budget > 0) {
        auto it = queue.begin();
        auto [d, src] = it->first;
        queue.erase(it);
        if (d != dist_[src]) continue;
        ctx.send(ctx.neighbors()[ni],
                 Word{kTagBfsDist, static_cast<std::int64_t>(src),
                      static_cast<std::int64_t>(d + 1), false});
        --budget;
      }
    }
  }

 private:
  void relax(Context& ctx, std::size_t src, std::size_t d, NodeId from) {
    if (d >= dist_[src]) return;
    dist_[src] = d;
    parent_[src] = from;
    if (d >= depth_limit_) return;
    for (std::size_t ni = 0; ni < ctx.neighbors().size(); ++ni) {
      outbox_[ni].emplace(std::pair{d, src}, 0);
    }
  }

  const std::vector<NodeId>* sources_;
  std::size_t depth_limit_;
  std::vector<std::size_t> dist_;
  std::vector<NodeId> parent_;
  std::vector<std::map<std::pair<std::size_t, std::size_t>, int>> outbox_;
};

/// CycleBfsProgram with std::map per-neighbor queues and hash-map records.
class RefCycleBfsProgram final : public NodeProgram {
 public:
  RefCycleBfsProgram(const std::vector<NodeId>* sources, const std::vector<bool>* active,
                     std::size_t depth_limit)
      : sources_(sources), active_(active), depth_limit_(depth_limit) {}

  std::int64_t candidate() const { return candidate_; }

  void on_round(Context& ctx, std::span<const Message> inbox) override {
    if (!(*active_)[ctx.id()]) return;
    if (ctx.round() == 0) {
      outbox_.resize(ctx.neighbors().size());
      for (std::size_t i = 0; i < sources_->size(); ++i) {
        if ((*sources_)[i] == ctx.id()) accept(ctx, i, 0, kUnreachable);
      }
    }
    for (const Message& m : inbox) {
      if (m.word.tag != kTagCycleToken) continue;
      accept(ctx, static_cast<std::size_t>(m.word.a),
             static_cast<std::size_t>(m.word.b), m.from);
    }
    for (std::size_t ni = 0; ni < ctx.neighbors().size(); ++ni) {
      auto& queue = outbox_[ni];
      for (std::size_t budget = ctx.bandwidth(); budget > 0 && !queue.empty();
           --budget) {
        auto it = queue.begin();
        auto [d, src] = it->first;
        queue.erase(it);
        ctx.send(ctx.neighbors()[ni],
                 Word{kTagCycleToken, static_cast<std::int64_t>(src),
                      static_cast<std::int64_t>(d + 1), false});
      }
    }
  }

 private:
  void accept(Context& ctx, std::size_t src, std::size_t d, NodeId from) {
    auto it = seen_.find(src);
    if (it != seen_.end()) {
      if (from != first_from_[src]) {
        candidate_ = std::min(candidate_, static_cast<std::int64_t>(it->second + d));
      }
      return;
    }
    seen_.emplace(src, d);
    first_from_[src] = from;
    if (d >= depth_limit_) return;
    for (std::size_t ni = 0; ni < ctx.neighbors().size(); ++ni) {
      NodeId u = ctx.neighbors()[ni];
      if (u == from) continue;
      if (!(*active_)[u]) continue;
      outbox_[ni].emplace(std::pair{d, src}, 0);
    }
  }

  const std::vector<NodeId>* sources_;
  const std::vector<bool>* active_;
  std::size_t depth_limit_;
  std::unordered_map<std::size_t, std::size_t> seen_;
  std::unordered_map<std::size_t, NodeId> first_from_;
  std::int64_t candidate_ = apps::kNoCycle;
  std::vector<std::map<std::pair<std::size_t, std::size_t>, int>> outbox_;
};

// --- Harness ---------------------------------------------------------------

struct Send {
  std::size_t round;
  NodeId from;
  NodeId to;
  Word word;
  friend bool operator==(const Send&, const Send&) = default;
};

/// Every admitted send with its payload, in commit order (net::Trace keeps
/// no payload).
class SendLog final : public net::EngineObserver {
 public:
  void on_send(std::size_t round, NodeId from, NodeId to, const Word& word,
               std::size_t edge_words) override {
    (void)edge_words;
    sends.push_back(Send{round, from, to, word});
  }
  std::vector<Send> sends;
};

struct Fixture {
  std::string name;
  Graph graph;
};

std::vector<Fixture> fixtures() {
  util::Rng rng(64);
  std::vector<Fixture> out;
  out.push_back({"random-64", net::random_connected_graph(64, 128, rng)});
  out.push_back({"complete-24", net::complete_graph(24)});
  out.push_back({"star-48", net::star_graph(48)});
  out.push_back({"two-stars-31-31-2", net::two_stars_graph(31, 31, 2)});
  out.push_back({"lollipop-16-16", net::lollipop_graph(16, 16)});
  out.push_back({"grid-9x9", net::grid_graph(9, 9)});
  out.push_back({"path-33", net::path_graph(33)});
  return out;
}

std::vector<NodeId> all_nodes(std::size_t n) {
  std::vector<NodeId> out(n);
  for (NodeId v = 0; v < n; ++v) out[v] = v;
  return out;
}

/// Four spread-out sources, one of them the last node.
std::vector<NodeId> four_nodes(std::size_t n) {
  return {0, n / 3, (2 * n) / 3, n - 1};
}

constexpr std::uint64_t kEngineSeed = 29;

TEST(BfsTokenQueues, MultiBfsSendsWhatPerNeighborMapsSent) {
  for (const Fixture& f : fixtures()) {
    const Graph& g = f.graph;
    const std::size_t n = g.num_nodes();
    const std::size_t diameter = g.diameter();
    for (std::size_t bandwidth : {1u, 2u, 3u}) {
      for (const auto& sources : {all_nodes(n), four_nodes(n)}) {
        for (std::size_t depth : {n, diameter - 1}) {
          SCOPED_TRACE(f.name + " B=" + std::to_string(bandwidth) +
                       " |S|=" + std::to_string(sources.size()) +
                       " depth=" + std::to_string(depth));
          Engine ref_engine(g, bandwidth, kEngineSeed);
          SendLog ref_log;
          ref_engine.set_observers({&ref_log});
          std::vector<std::unique_ptr<NodeProgram>> programs;
          for (NodeId v = 0; v < n; ++v) {
            programs.push_back(std::make_unique<RefMultiBfsProgram>(&sources, depth));
          }
          net::RunResult ref_cost =
              ref_engine.run(programs, 8 * (sources.size() + n) + 32);

          Engine engine(g, bandwidth, kEngineSeed);
          SendLog log;
          engine.set_observers({&log});
          net::MultiBfsResult result = net::multi_source_bfs(engine, sources, depth);

          ASSERT_TRUE(ref_cost.completed);
          EXPECT_EQ(result.cost, ref_cost);
          ASSERT_EQ(log.sends.size(), ref_log.sends.size());
          EXPECT_TRUE(log.sends == ref_log.sends);
          for (NodeId v = 0; v < n; ++v) {
            const auto& ref = static_cast<RefMultiBfsProgram&>(*programs[v]);
            EXPECT_EQ(result.dist[v], ref.dist()) << "node " << v;
            EXPECT_EQ(result.parent[v], ref.parent()) << "node " << v;
          }
        }
      }
    }
  }
}

TEST(BfsTokenQueues, CycleBfsSendsWhatPerNeighborMapsSent) {
  for (const Fixture& f : fixtures()) {
    const Graph& g = f.graph;
    const std::size_t n = g.num_nodes();
    const std::size_t diameter = g.diameter();
    std::vector<bool> every(n, true);
    std::vector<bool> masked(n, true);
    for (NodeId v = 1; v < n; v += 3) masked[v] = false;
    for (std::size_t bandwidth : {1u, 2u, 3u}) {
      for (const auto& sources : {all_nodes(n), four_nodes(n)}) {
        for (std::size_t depth : {n, diameter - 1}) {
          for (const std::vector<bool>* active : {&every, &masked}) {
            SCOPED_TRACE(f.name + " B=" + std::to_string(bandwidth) +
                         " |S|=" + std::to_string(sources.size()) +
                         " depth=" + std::to_string(depth) +
                         (active == &masked ? " masked" : " all-active"));
            Engine ref_engine(g, bandwidth, kEngineSeed);
            SendLog ref_log;
            ref_engine.set_observers({&ref_log});
            std::vector<std::unique_ptr<NodeProgram>> programs;
            for (NodeId v = 0; v < n; ++v) {
              programs.push_back(
                  std::make_unique<RefCycleBfsProgram>(&sources, active, depth));
            }
            net::RunResult ref_cost =
                ref_engine.run(programs, 8 * (sources.size() * depth + n) + 64);

            Engine engine(g, bandwidth, kEngineSeed);
            SendLog log;
            engine.set_observers({&log});
            apps::CycleBfsResult result =
                apps::cycle_bfs(engine, sources, *active, depth);

            ASSERT_TRUE(ref_cost.completed);
            EXPECT_EQ(result.cost, ref_cost);
            ASSERT_EQ(log.sends.size(), ref_log.sends.size());
            EXPECT_TRUE(log.sends == ref_log.sends);
            for (NodeId v = 0; v < n; ++v) {
              EXPECT_EQ(result.candidate[v],
                        static_cast<RefCycleBfsProgram&>(*programs[v]).candidate())
                  << "node " << v;
            }
          }
        }
      }
    }
  }
}

// --- MultiBfs snapshot words (state version 2) -----------------------------

/// Runs the factory's program; at `swap_round` it snapshots it, checks that
/// a fresh program rejects version 1 and every truncation of the words, and
/// continues on a fresh program restored from them.
class SwapAtRound final : public NodeProgram {
 public:
  SwapAtRound(const Engine::ProgramFactory& factory, NodeId v, std::size_t swap_round)
      : factory_(factory), v_(v), swap_round_(swap_round), inner_(factory(v)) {}

  std::size_t swaps() const { return swaps_; }
  std::vector<std::int64_t> words() const {
    std::vector<std::int64_t> out;
    EXPECT_TRUE(inner_->snapshot(out));
    return out;
  }

  void on_round(Context& ctx, std::span<const Message> inbox) override {
    if (ctx.round() == swap_round_) {
      std::vector<std::int64_t> snap = words();
      EXPECT_EQ(inner_->state_version(), 2u);
      std::unique_ptr<NodeProgram> fresh = factory_(v_);
      EXPECT_FALSE(fresh->restore(1, snap));
      for (std::size_t len = 0; len < snap.size(); ++len) {
        EXPECT_FALSE(fresh->restore(2, std::span(snap).first(len))) << len;
      }
      std::vector<std::int64_t> trailing = snap;
      trailing.push_back(0);
      EXPECT_FALSE(fresh->restore(2, trailing));
      EXPECT_TRUE(fresh->restore(2, snap));
      inner_ = std::move(fresh);
      ++swaps_;
    }
    inner_->on_round(ctx, inbox);
  }

 private:
  const Engine::ProgramFactory& factory_;
  NodeId v_;
  std::size_t swap_round_;
  std::unique_ptr<NodeProgram> inner_;
  std::size_t swaps_ = 0;
};

/// Copies the program factory a protocol installs for its run (the engine
/// clears its own when the run returns).
class FactoryCopy final : public net::EngineObserver {
 public:
  void on_run_begin(const Engine& engine) override { factory = engine.program_factory(); }
  Engine::ProgramFactory factory;
};

/// Runs multi_source_bfs once to capture its program factory.
Engine::ProgramFactory multi_bfs_factory(Engine& engine,
                                         const std::vector<NodeId>& sources,
                                         std::size_t depth, net::MultiBfsResult* result) {
  FactoryCopy copy;
  engine.set_observers({&copy});
  net::MultiBfsResult run = net::multi_source_bfs(engine, sources, depth);
  engine.set_observers({});
  if (result != nullptr) *result = std::move(run);
  return copy.factory;
}

struct SwapRun {
  net::RunResult cost;
  std::vector<Send> sends;
  std::vector<std::vector<std::int64_t>> final_words;
  std::size_t swaps = 0;
};

SwapRun run_with_swap(Engine& engine, const Engine::ProgramFactory& factory,
                      std::size_t rounds, std::size_t swap_round) {
  const std::size_t n = engine.graph().num_nodes();
  SendLog log;
  engine.set_observers({&log});
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId v = 0; v < n; ++v) {
    programs.push_back(std::make_unique<SwapAtRound>(factory, v, swap_round));
  }
  SwapRun run;
  run.cost = engine.run(programs, rounds);
  engine.set_observers({});
  run.sends = std::move(log.sends);
  for (const auto& p : programs) {
    const auto& swap = static_cast<const SwapAtRound&>(*p);
    run.final_words.push_back(swap.words());
    run.swaps += swap.swaps();
  }
  return run;
}

TEST(MultiBfsSnapshot, MidRunRestoreFinishesIdentically) {
  util::Rng rng(5);
  const Graph g = net::random_connected_graph(40, 80, rng);
  const std::size_t n = g.num_nodes();
  const std::vector<NodeId> sources = all_nodes(n);
  Engine engine(g, 2, kEngineSeed);
  net::MultiBfsResult clean;
  const Engine::ProgramFactory factory = multi_bfs_factory(engine, sources, n, &clean);
  ASSERT_TRUE(factory != nullptr);
  ASSERT_GT(clean.cost.rounds, 12u);

  const std::size_t limit = 8 * (sources.size() + n) + 32;
  SwapRun straight = run_with_swap(engine, factory, limit, kUnreachable);
  SwapRun swapped = run_with_swap(engine, factory, limit, clean.cost.rounds / 2);

  EXPECT_EQ(straight.swaps, 0u);
  EXPECT_EQ(swapped.swaps, n);
  EXPECT_EQ(straight.cost, clean.cost);
  EXPECT_EQ(swapped.cost, clean.cost);
  EXPECT_TRUE(swapped.sends == straight.sends);
  EXPECT_EQ(swapped.final_words, straight.final_words);
  // The words lead with |S|, then the distances and parents.
  for (NodeId v = 0; v < n; ++v) {
    const auto& words = swapped.final_words[v];
    ASSERT_GE(words.size(), 1 + 2 * n);
    EXPECT_EQ(words[0], static_cast<std::int64_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(static_cast<std::size_t>(words[1 + i]), clean.dist[v][i]);
      EXPECT_EQ(static_cast<NodeId>(words[1 + n + i]), clean.parent[v][i]);
    }
  }
}

TEST(MultiBfsSnapshot, RejectsMalformedQueueEntries) {
  util::Rng rng(5);
  const Graph g = net::random_connected_graph(12, 12, rng);
  const std::vector<NodeId> sources = {0, 5};
  Engine engine(g, 1, kEngineSeed);
  std::unique_ptr<NodeProgram> program =
      multi_bfs_factory(engine, sources, g.num_nodes(), nullptr)(3);
  // Two slots: dist, parent, then the queue's (distance, source) entries.
  auto words = [](std::vector<std::int64_t> queue) {
    std::vector<std::int64_t> out = {2, 1, 4, 0, 7};
    out.push_back(static_cast<std::int64_t>(queue.size() / 2));
    out.insert(out.end(), queue.begin(), queue.end());
    return out;
  };
  using Words = std::vector<std::int64_t>;
  EXPECT_TRUE(program->restore(2, words({1, 0, 4, 1})));
  EXPECT_FALSE(program->restore(2, words({4, 1, 1, 0})));  // not ascending
  EXPECT_FALSE(program->restore(2, words({1, 0, 1, 0})));  // a repeated token
  EXPECT_FALSE(program->restore(2, words({1, 2})));        // source out of range
  EXPECT_FALSE(program->restore(2, words({-1, 0})));       // negative distance
  EXPECT_FALSE(program->restore(2, Words{-1}));            // negative count
  EXPECT_FALSE(program->restore(2, Words{1 << 30, 0}));    // count beyond the words
}

}  // namespace
}  // namespace qcongest
