#include "src/apps/cycle_detection.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "src/framework/distributed_oracle.hpp"
#include "src/net/bfs.hpp"
#include "src/net/clustering.hpp"
#include "src/net/pipeline.hpp"
#include "src/query/parallel_minfind.hpp"
#include "src/util/combinatorics.hpp"

namespace qcongest::apps {

namespace {

constexpr std::int32_t kTagCycleToken = 30;

/// Truncated BFS-meeting program. Tokens (source, dist) flood from each
/// source through active nodes; a node that already holds a record for a
/// source and receives a second token via a different tree branch witnesses
/// a closed walk of length dist_old + dist_new and records it as a cycle
/// candidate (every candidate contains a genuine cycle of at most its
/// length, and the minimum over all sources of all candidates is exactly
/// the girth — the [PRT12]-style analysis used by [CFGGLO20]).
///
/// Each neighbor's queue is a min-heap of (dist, source): a source is
/// forwarded at most once, so its keys are unique and the heap pops them in
/// ascending order.
class CycleBfsProgram final : public net::NodeProgram {
 public:
  CycleBfsProgram(const std::vector<net::NodeId>* sources,
                  const std::vector<bool>* active, std::size_t depth_limit)
      : sources_(sources), active_(active), depth_limit_(depth_limit) {}

  std::int64_t candidate() const { return candidate_; }

  void on_round(net::Context& ctx, std::span<const net::Message> inbox) override {
    if (!(*active_)[ctx.id()]) return;
    if (ctx.round() == 0) {
      seen_.assign(sources_->size(), net::kUnreachable);
      first_from_.assign(sources_->size(), net::kUnreachable);
      outbox_.resize(ctx.neighbors().size());
      for (std::size_t i = 0; i < sources_->size(); ++i) {
        if ((*sources_)[i] == ctx.id()) accept(ctx, i, 0, net::kUnreachable);
      }
    }
    for (const net::Message& m : inbox) {
      if (m.word.tag != kTagCycleToken) continue;
      accept(ctx, static_cast<std::size_t>(m.word.a),
             static_cast<std::size_t>(m.word.b), m.from);
    }
    for (std::size_t ni = 0; ni < ctx.neighbors().size(); ++ni) {
      auto& queue = outbox_[ni];
      for (std::size_t budget = ctx.bandwidth(); budget > 0 && !queue.empty();
           --budget) {
        std::pop_heap(queue.begin(), queue.end(), std::greater<>{});
        auto [d, src] = queue.back();
        queue.pop_back();
        ctx.send(ctx.neighbors()[ni],
                 net::Word{kTagCycleToken, static_cast<std::int64_t>(src),
                           static_cast<std::int64_t>(d + 1), false});
      }
    }
  }

 private:
  void accept(net::Context& ctx, std::size_t src, std::size_t d, net::NodeId from) {
    if (src >= seen_.size()) throw std::logic_error("cycle_bfs: bad source index");
    if (seen_[src] != net::kUnreachable) {
      // Second token for this source: a meeting. Ignore echoes from the
      // neighbor we first heard this source from (the "parent" edge).
      if (from != first_from_[src]) {
        candidate_ = std::min(candidate_, static_cast<std::int64_t>(seen_[src] + d));
      }
      return;
    }
    seen_[src] = d;
    first_from_[src] = from;
    if (d >= depth_limit_) return;
    for (std::size_t ni = 0; ni < ctx.neighbors().size(); ++ni) {
      net::NodeId u = ctx.neighbors()[ni];
      if (u == from) continue;              // never echo straight back
      if (!(*active_)[u]) continue;         // restricted subgraph G'
      outbox_[ni].emplace_back(d, src);
      std::push_heap(outbox_[ni].begin(), outbox_[ni].end(), std::greater<>{});
    }
  }

  const std::vector<net::NodeId>* sources_;
  const std::vector<bool>* active_;
  std::size_t depth_limit_;
  std::vector<std::size_t> seen_;         // source -> dist, kUnreachable if unseen
  std::vector<net::NodeId> first_from_;  // source -> sender
  std::int64_t candidate_ = kNoCycle;
  // Per-neighbor min-heap of (dist, source) tokens.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> outbox_;
};

constexpr std::int32_t kTagPerSource = 31;
constexpr std::int64_t kDistPack = 1 << 20;  // b packs branch * kDistPack + dist

/// Token pass for per_source_cycle_candidates (see header). Tokens carry
/// (slot, branch, dist); a node forwards only the first token per slot and
/// records meetings as cycle candidates:
///   same branch, different sender:  d + d'          (cycle through branch)
///   different branches (stage 2):   d + d' + 2      (cycle through s)
class PerSourceCycleProgram final : public net::NodeProgram {
 public:
  PerSourceCycleProgram(const std::vector<net::NodeId>* queries, std::size_t k,
                        bool stage2)
      : queries_(queries), depth_limit_(util::ceil_div(k, 2)), k_(k),
        stage2_(stage2) {}

  const std::vector<std::int64_t>& candidates() const { return candidate_; }

  void on_round(net::Context& ctx, std::span<const net::Message> inbox) override {
    if (ctx.round() == 0) {
      candidate_.assign(queries_->size(), kNoCycle);
      first_.assign(queries_->size(), Record{});
      outbox_.resize(ctx.neighbors().size());
      for (std::size_t slot = 0; slot < queries_->size(); ++slot) {
        net::NodeId s = (*queries_)[slot];
        if (!stage2_ && s == ctx.id()) {
          accept(ctx, slot, ctx.id(), 0, net::kUnreachable);
        }
        if (stage2_ && s != ctx.id()) {
          // Neighbors of s seed their own branch on G \ {s}.
          const auto& adj = ctx.neighbors();
          if (std::find(adj.begin(), adj.end(), s) != adj.end()) {
            accept(ctx, slot, ctx.id(), 0, net::kUnreachable);
          }
        }
      }
    }
    for (const net::Message& m : inbox) {
      if (m.word.tag != kTagPerSource) continue;
      auto slot = static_cast<std::size_t>(m.word.a);
      auto branch = static_cast<net::NodeId>(m.word.b / kDistPack);
      auto dist = static_cast<std::size_t>(m.word.b % kDistPack);
      accept(ctx, slot, branch, dist, m.from);
    }
    for (std::size_t ni = 0; ni < outbox_.size(); ++ni) {
      auto& queue = outbox_[ni];
      for (std::size_t budget = ctx.bandwidth(); budget > 0 && !queue.empty();
           --budget) {
        auto it = queue.begin();
        ctx.send(ctx.neighbors()[ni], it->second);
        queue.erase(it);
      }
    }
  }

 private:
  struct Record {
    bool seen = false;
    net::NodeId branch = 0;
    std::size_t dist = 0;
    net::NodeId from = net::kUnreachable;
  };

  void accept(net::Context& ctx, std::size_t slot, net::NodeId branch,
              std::size_t dist, net::NodeId from) {
    net::NodeId s = (*queries_)[slot];
    if (stage2_ && ctx.id() == s) return;  // s is removed from the graph
    Record& rec = first_[slot];
    if (rec.seen) {
      if (from == rec.from) return;  // parent echo, not a meeting
      std::size_t length = rec.dist + dist + (branch == rec.branch ? 0 : 2);
      if (length >= 3 && length <= k_) {
        candidate_[slot] =
            std::min(candidate_[slot], static_cast<std::int64_t>(length));
      }
      return;
    }
    rec = Record{true, branch, dist, from};
    if (dist >= depth_limit_) return;
    for (std::size_t ni = 0; ni < ctx.neighbors().size(); ++ni) {
      net::NodeId u = ctx.neighbors()[ni];
      if (u == from) continue;
      if (stage2_ && u == s) continue;
      outbox_[ni].emplace(
          std::tuple{dist, slot},
          net::Word{kTagPerSource, static_cast<std::int64_t>(slot),
                    static_cast<std::int64_t>(branch) * kDistPack +
                        static_cast<std::int64_t>(dist + 1),
                    false});
    }
  }

  const std::vector<net::NodeId>* queries_;
  std::size_t depth_limit_;
  std::size_t k_;
  bool stage2_;
  std::vector<std::int64_t> candidate_;
  std::vector<Record> first_;
  // Per-neighbor priority queue keyed by (dist, slot): smaller hops first.
  std::vector<std::map<std::tuple<std::size_t, std::size_t>, net::Word>> outbox_;
};

std::optional<std::size_t> to_length(std::int64_t candidate, std::size_t k) {
  if (candidate >= kNoCycle || candidate > static_cast<std::int64_t>(k)) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(candidate);
}

}  // namespace

PerSourceCandidates per_source_cycle_candidates(net::Engine& engine,
                                                const std::vector<net::NodeId>& queries,
                                                std::size_t k, bool stage2) {
  const std::size_t n = engine.graph().num_nodes();
  if (queries.empty()) throw std::invalid_argument("per_source: no queries");
  for (net::NodeId s : queries) {
    if (s >= n) throw std::invalid_argument("per_source: query out of range");
  }
  std::vector<std::unique_ptr<net::NodeProgram>> programs;
  programs.reserve(n);
  for (net::NodeId v = 0; v < n; ++v) {
    programs.push_back(std::make_unique<PerSourceCycleProgram>(&queries, k, stage2));
  }
  PerSourceCandidates result;
  std::size_t limit = 8 * (queries.size() * (k + 2) + n) + 64;
  result.cost = engine.run(programs, limit);
  if (!result.cost.completed) throw std::logic_error("per_source: did not finish");
  result.candidate.reserve(n);
  for (net::NodeId v = 0; v < n; ++v) {
    result.candidate.push_back(
        static_cast<PerSourceCycleProgram&>(*programs[v]).candidates());
  }
  return result;
}

CycleBfsResult cycle_bfs(net::Engine& engine, const std::vector<net::NodeId>& sources,
                         const std::vector<bool>& active, std::size_t depth_limit) {
  const std::size_t n = engine.graph().num_nodes();
  if (active.size() != n) throw std::invalid_argument("cycle_bfs: active size");
  std::vector<std::unique_ptr<net::NodeProgram>> programs;
  programs.reserve(n);
  for (net::NodeId v = 0; v < n; ++v) {
    programs.push_back(
        std::make_unique<CycleBfsProgram>(&sources, &active, depth_limit));
  }
  CycleBfsResult result;
  // Token volume per edge is bounded by the number of sources; generous cap.
  std::size_t limit = 8 * (sources.size() * depth_limit + n) + 64;
  result.cost = engine.run(programs, limit);
  if (!result.cost.completed) throw std::logic_error("cycle_bfs: did not finish");
  result.candidate.reserve(n);
  for (net::NodeId v = 0; v < n; ++v) {
    result.candidate.push_back(static_cast<CycleBfsProgram&>(*programs[v]).candidate());
  }
  return result;
}

CycleSearchResult light_cycle_detection(const net::Graph& graph, std::size_t k,
                                        std::size_t degree_threshold) {
  if (k < 3) throw std::invalid_argument("light_cycle_detection: k < 3");
  const std::size_t n = graph.num_nodes();
  net::Engine engine(graph, 1, 7);
  CycleSearchResult result;

  std::vector<bool> active(n);
  std::vector<net::NodeId> sources;
  for (net::NodeId v = 0; v < n; ++v) {
    active[v] = graph.degree(v) <= degree_threshold;
    if (active[v]) sources.push_back(v);
  }
  if (!sources.empty()) {
    auto bfs = cycle_bfs(engine, sources, active, util::ceil_div(k, 2));
    result.cost += bfs.cost;

    // Deliver the minimum candidate to the leader classically.
    auto election = net::elect_leader(engine);
    result.cost += election.cost;
    net::BfsTree tree = net::build_bfs_tree(engine, election.leader);
    result.cost += tree.cost;
    std::vector<std::vector<std::int64_t>> values(n);
    for (net::NodeId v = 0; v < n; ++v) values[v] = {bfs.candidate[v]};
    auto conv = net::pipelined_convergecast(
        engine, tree, values, 1,
        [](std::int64_t a, std::int64_t b) { return std::min(a, b); }, false);
    result.cost += conv.cost;
    result.cycle_length = to_length(conv.totals[0], k);
  }
  return result;
}

double cycle_beta(std::size_t n, std::size_t diameter, std::size_t k) {
  double log_n = std::log(static_cast<double>(std::max<std::size_t>(n, 2)));
  double log_d = std::log(static_cast<double>(std::max<std::size_t>(diameter, 1)));
  return (1.0 + log_d / log_n) /
         (1.0 + 2.0 * static_cast<double>(util::ceil_div(k, 2)));
}

namespace {

/// Heavy-cycle stage: parallel minimum finding (Lemma 3, exploiting the
/// >= n^beta-fold degenerate minimum) over the vertex values
/// "smallest cycle of length <= k through s or a neighbor of s".
///
/// Substitution (DESIGN.md): the per-batch communication is the two BFS
/// stages of [CFGGLO20] — modeled by two truncated multi-source BFS-meeting
/// passes from the batch's vertices, measured; the stage-2 (neighbors on
/// G \ {s}) numeric values come from ground truth, which the paper's
/// procedure provably computes.
CycleSearchResult heavy_cycle_detection(const net::Graph& graph, std::size_t k,
                                        util::Rng& rng) {
  const std::size_t n = graph.num_nodes();
  net::Engine engine(graph, 1, rng.engine()());
  CycleSearchResult result;

  auto election = net::elect_leader(engine);
  result.cost += election.cost;
  net::BfsTree tree = net::build_bfs_tree(engine, election.leader);
  result.cost += tree.cost;

  // Per-vertex values following the two-stage procedure of [CFGGLO20] /
  // Lemma 23, computed by the centralized replica (substitution note
  // above): stage 1 is a BFS-meeting search from s; stage 2 (with kappa set
  // to stage 1's result) searches from each neighbor of s on G \ {s}.
  std::vector<std::int64_t> value(n, kNoCycle);
  for (net::NodeId s = 0; s < n; ++s) {
    auto stage1 = graph.shortest_cycle_through(s, k);
    std::size_t kappa = stage1 ? *stage1 : k;
    std::int64_t best = stage1 ? static_cast<std::int64_t>(*stage1) : kNoCycle;
    for (net::NodeId u : graph.neighbors(s)) {
      if (auto stage2 = graph.shortest_cycle_through(u, kappa, s)) {
        best = std::min(best, static_cast<std::int64_t>(*stage2));
      }
    }
    value[s] = best;
  }

  framework::OracleConfig config;
  config.domain_size = n;
  config.parallelism = std::max<std::size_t>(1, tree.height + k);  // p = D + k
  config.value_bits = 21;  // candidates fit below kNoCycle = 2^20
  config.combine = [](std::int64_t a, std::int64_t b) { return std::min(a, b); };
  config.identity = kNoCycle;

  framework::DistributedOracle::BatchComputer computer =
      [&engine, &value, n, k](std::span<const std::size_t> indices) {
        framework::DistributedOracle::BatchValues out;
        std::vector<net::NodeId> queries(indices.begin(), indices.end());
        // Stage 1 (BFS from each queried vertex) and stage 2 (BFSs from its
        // neighbors on G minus the vertex), run as honest per-query token
        // passes; the per-vertex numeric values the oracle aggregates come
        // from the centralized replica so that peek and fetch agree
        // deterministically (the token passes' own candidates are validated
        // against the replica in the tests).
        out.cost += per_source_cycle_candidates(engine, queries, k, false).cost;
        out.cost += per_source_cycle_candidates(engine, queries, k, true).cost;
        out.per_node.assign(n, std::vector<query::Value>(indices.size(), kNoCycle));
        for (std::size_t slot = 0; slot < indices.size(); ++slot) {
          std::size_t s = indices[slot];
          out.per_node[s][slot] = value[s];
        }
        return out;
      };
  auto truth = [&value](std::size_t s) { return value[s]; };
  framework::DistributedOracle oracle(engine, tree, config, computer, truth);

  std::size_t witness = query::minfind(oracle, rng);
  result.cycle_length = to_length(value[witness], k);
  result.batches = oracle.ledger().batches;
  result.cost += oracle.total_cost();
  return result;
}

}  // namespace

CycleSearchResult cycle_detection_with_beta(const net::Graph& graph, std::size_t k,
                                            double beta, util::Rng& rng) {
  if (k < 3) throw std::invalid_argument("cycle_detection: k < 3");
  const std::size_t n = graph.num_nodes();
  // A cycle, if any exists, has length <= 2D + 1.
  std::size_t diameter_bound = 2 * graph.diameter() + 1;
  k = std::min(k, std::max<std::size_t>(3, diameter_bound));

  auto threshold = static_cast<std::size_t>(
      std::ceil(std::pow(static_cast<double>(n), beta)));

  CycleSearchResult light = light_cycle_detection(graph, k, threshold);
  CycleSearchResult heavy = heavy_cycle_detection(graph, k, rng);

  CycleSearchResult result;
  result.cost += light.cost;
  result.cost += heavy.cost;
  result.batches = heavy.batches;
  if (light.cycle_length && heavy.cycle_length) {
    result.cycle_length = std::min(*light.cycle_length, *heavy.cycle_length);
  } else {
    result.cycle_length = light.cycle_length ? light.cycle_length : heavy.cycle_length;
  }
  return result;
}

CycleSearchResult cycle_detection(const net::Graph& graph, std::size_t k,
                                  util::Rng& rng) {
  double beta = cycle_beta(graph.num_nodes(), graph.diameter(), k);
  return cycle_detection_with_beta(graph, k, beta, rng);
}

CycleSearchResult cycle_detection_clustered(const net::Graph& graph, std::size_t k,
                                            util::Rng& rng) {
  if (k < 3) throw std::invalid_argument("cycle_detection_clustered: k < 3");
  const std::size_t n = graph.num_nodes();

  net::Clustering clustering = net::cluster_graph(graph, 2 * k, rng);
  CycleSearchResult result;
  result.charged_rounds = clustering.charged_rounds;

  // Per color, the clusters' k-neighborhood subgraphs are disjoint (same-
  // color clusters are >= 2k apart), so their runs share rounds: per color
  // we account the maximum over its clusters.
  std::vector<std::size_t> color_rounds(clustering.num_colors, 0);
  std::optional<std::size_t> best;

  for (const auto& cluster : clustering.clusters) {
    // Subgraph: the cluster plus its k-fringe.
    auto dist = graph.bfs_distances(cluster.center);
    std::size_t reach = 0;
    for (net::NodeId u : cluster.members) reach = std::max(reach, dist[u]);
    reach += k;
    std::vector<net::NodeId> nodes;
    std::vector<std::size_t> local_id(n, net::kUnreachable);
    for (net::NodeId v = 0; v < n; ++v) {
      if (dist[v] <= reach) {
        local_id[v] = nodes.size();
        nodes.push_back(v);
      }
    }
    if (nodes.size() < 3) continue;
    net::Graph sub(nodes.size());
    for (net::NodeId v : nodes) {
      for (net::NodeId u : graph.neighbors(v)) {
        if (local_id[u] != net::kUnreachable && local_id[v] < local_id[u]) {
          sub.add_edge(local_id[v], local_id[u]);
        }
      }
    }
    if (!sub.connected()) continue;  // fringe truncation split it; the
                                     // cluster's own ball stays connected

    CycleSearchResult local = cycle_detection(sub, k, rng);
    color_rounds[cluster.color] =
        std::max(color_rounds[cluster.color], local.cost.rounds);
    result.cost.messages += local.cost.messages;
    result.cost.classical_words += local.cost.classical_words;
    result.cost.quantum_words += local.cost.quantum_words;
    result.batches += local.batches;
    if (local.cycle_length && (!best || *local.cycle_length < *best)) {
      best = local.cycle_length;
    }
  }
  for (std::size_t rounds : color_rounds) result.cost.rounds += rounds;
  result.cost.completed = true;
  result.cycle_length = best;
  return result;
}

}  // namespace qcongest::apps
