#include "src/net/multi_bfs.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

namespace qcongest::net {

namespace {

constexpr std::int32_t kTagBfsDist = 20;

/// Relaxation-based multi-source BFS. Each node keeps its best known
/// distance to every source and forwards improvements; outbound tokens are
/// prioritized by distance (smaller first), which yields the O(|S| + D)
/// schedule of [PRT12; HW12]. Late improvements re-trigger forwarding, so
/// the final distances are exact regardless of queueing delays.
///
/// Every neighbor is owed the same tokens, so one queue serves them all: a
/// relaxation is pushed once, and each round the node pops its <= B live
/// tokens once and sends them to each neighbor in turn. A source's distance
/// only decreases, so no (distance, source) key is pushed twice and the
/// min-heap pops exactly the ascending key order.
class MultiBfsProgram final : public NodeProgram {
 public:
  MultiBfsProgram(const std::vector<NodeId>* sources, std::size_t depth_limit)
      : sources_(sources), depth_limit_(depth_limit) {}

  const std::vector<std::size_t>& dist() const { return dist_; }
  const std::vector<NodeId>& parent() const { return parent_; }

  void on_round(Context& ctx, std::span<const Message> inbox) override {
    if (ctx.round() == 0) {
      dist_.assign(sources_->size(), kUnreachable);
      parent_.assign(sources_->size(), kUnreachable);
      for (std::size_t i = 0; i < sources_->size(); ++i) {
        if ((*sources_)[i] == ctx.id()) relax(i, 0, kUnreachable);
      }
    }
    for (const Message& m : inbox) {
      if (m.word.tag != kTagBfsDist) continue;
      relax(static_cast<std::size_t>(m.word.a), static_cast<std::size_t>(m.word.b),
            m.from);
    }
    // Pop up to B live tokens, smallest first, into the tail of the queue
    // vector; stale entries (already improved upon) ride along unsent.
    std::size_t heap_end = queue_.size();
    for (std::size_t live = 0; heap_end > 0 && live < ctx.bandwidth();) {
      std::pop_heap(queue_.begin(),
                    queue_.begin() + static_cast<std::ptrdiff_t>(heap_end),
                    std::greater<>{});
      --heap_end;
      if (is_live(queue_[heap_end])) ++live;
    }
    // Neighbor-major, ascending within a neighbor: the tail holds the
    // popped tokens largest first.
    for (NodeId u : ctx.neighbors()) {
      for (std::size_t i = queue_.size(); i > heap_end; --i) {
        if (!is_live(queue_[i - 1])) continue;
        const auto [d, src] = queue_[i - 1];
        ctx.send(u, Word{kTagBfsDist, static_cast<std::int64_t>(src),
                         static_cast<std::int64_t>(d + 1), false});
      }
    }
    queue_.resize(heap_end);
  }

  bool snapshot(std::vector<std::int64_t>& out) const override {
    out.push_back(static_cast<std::int64_t>(dist_.size()));
    for (std::size_t d : dist_) out.push_back(static_cast<std::int64_t>(d));
    for (NodeId p : parent_) out.push_back(static_cast<std::int64_t>(p));
    std::vector<Token> sorted = queue_;
    std::sort(sorted.begin(), sorted.end());
    out.push_back(static_cast<std::int64_t>(sorted.size()));
    for (const auto& [d, src] : sorted) {
      out.push_back(static_cast<std::int64_t>(d));
      out.push_back(static_cast<std::int64_t>(src));
    }
    return true;
  }

  bool restore(std::uint32_t version, std::span<const std::int64_t> words) override {
    if (version != 2) return false;
    std::size_t pos = 0;
    // A count must fit in what is left of the words, two words per item.
    auto take_count = [&](std::size_t& out) {
      if (pos >= words.size() || words[pos] < 0) return false;
      out = static_cast<std::size_t>(words[pos++]);
      return out <= (words.size() - pos) / 2;
    };
    std::size_t slots = 0;
    if (!take_count(slots)) return false;
    std::vector<std::size_t> dist(slots);
    std::vector<NodeId> parent(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      dist[i] = static_cast<std::size_t>(words[pos + i]);
      parent[i] = static_cast<NodeId>(words[pos + slots + i]);
    }
    pos += 2 * slots;
    std::size_t entries = 0;
    if (!take_count(entries) || pos + 2 * entries != words.size()) return false;
    std::vector<Token> queue(entries);
    for (std::size_t i = 0; i < entries; ++i) {
      const std::int64_t d = words[pos + 2 * i];
      const std::int64_t src = words[pos + 2 * i + 1];
      if (d < 0 || src < 0 || static_cast<std::size_t>(src) >= slots) return false;
      queue[i] = Token{static_cast<std::size_t>(d), static_cast<std::size_t>(src)};
      if (i > 0 && !(queue[i - 1] < queue[i])) return false;  // sorted, unique
    }
    std::make_heap(queue.begin(), queue.end(), std::greater<>{});
    dist_ = std::move(dist);
    parent_ = std::move(parent);
    queue_ = std::move(queue);
    return true;
  }

  std::uint32_t state_version() const override { return 2; }

 private:
  using Token = std::pair<std::size_t, std::size_t>;  // (distance, source)

  bool is_live(const Token& t) const { return t.first == dist_[t.second]; }

  void relax(std::size_t src, std::size_t d, NodeId from) {
    if (src >= dist_.size()) throw std::logic_error("multi_bfs: bad source index");
    if (d >= dist_[src]) return;
    dist_[src] = d;
    parent_[src] = from;
    if (d >= depth_limit_) return;  // do not propagate past the depth limit
    queue_.emplace_back(d, src);
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
  }

  const std::vector<NodeId>* sources_;
  std::size_t depth_limit_;  // qlint-allow(unsnapshotted-state): factory-reconstructed config
  std::vector<std::size_t> dist_;
  std::vector<NodeId> parent_;
  std::vector<Token> queue_;  // min-heap of the tokens every neighbor is owed
};

constexpr std::int32_t kTagEchoParent = 21;
constexpr std::int32_t kTagEchoDone = 22;
constexpr std::int32_t kTagEchoMax = 23;

/// The echo phase of Lemma 20: children register with their BFS parents
/// (PARENT per source, then one DONE per edge); once a node has heard DONE
/// from every neighbor and the echoes of all its registered children for a
/// source, it forwards the subtree's distance maximum to its own parent.
/// Sources collect their eccentricities.
class EccEchoProgram final : public NodeProgram {
 public:
  EccEchoProgram(const std::vector<NodeId>* sources,
                 const std::vector<std::size_t>* dist,
                 const std::vector<NodeId>* parent)
      : sources_(sources), dist_(dist), parent_(parent) {}

  const std::vector<std::size_t>& eccentricity() const { return ecc_; }

  void on_round(Context& ctx, std::span<const Message> inbox) override {
    const std::size_t slots = sources_->size();
    const auto& adj = ctx.neighbors();
    if (ctx.round() == 0) {
      ecc_.assign(slots, 0);
      expected_.assign(slots, 0);
      echoed_.assign(slots, false);
      subtree_max_.assign(slots, 0);
      outbox_.resize(adj.size());
      for (std::size_t i = 0; i < slots; ++i) {
        subtree_max_[i] = (*dist_)[i] == kUnreachable ? 0 : (*dist_)[i];
        if ((*parent_)[i] != kUnreachable) {
          queue_to(ctx, (*parent_)[i],
                   Word{kTagEchoParent, static_cast<std::int64_t>(i), 0, false});
        }
      }
      for (std::size_t ni = 0; ni < adj.size(); ++ni) {
        outbox_[ni].push_back(Word{kTagEchoDone, 0, 0, false});
      }
    }
    for (const Message& m : inbox) {
      switch (m.word.tag) {
        case kTagEchoParent:
          ++expected_[static_cast<std::size_t>(m.word.a)];
          break;
        case kTagEchoDone:
          ++dones_;
          break;
        case kTagEchoMax: {
          auto slot = static_cast<std::size_t>(m.word.a);
          --expected_[slot];
          subtree_max_[slot] = std::max(
              subtree_max_[slot], static_cast<std::size_t>(m.word.b));
          break;
        }
        default:
          break;
      }
    }
    if (dones_ == adj.size()) {
      for (std::size_t i = 0; i < slots; ++i) {
        if (echoed_[i] || expected_[i] != 0) continue;
        echoed_[i] = true;
        if ((*parent_)[i] != kUnreachable) {
          queue_to(ctx, (*parent_)[i],
                   Word{kTagEchoMax, static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(subtree_max_[i]), false});
        } else if ((*sources_)[i] == ctx.id()) {
          ecc_[i] = subtree_max_[i];
        }
      }
    }
    for (std::size_t ni = 0; ni < outbox_.size(); ++ni) {
      auto& queue = outbox_[ni];
      for (std::size_t budget = ctx.bandwidth(); budget > 0 && !queue.empty();
           --budget) {
        ctx.send(adj[ni], queue.front());
        queue.pop_front();
      }
    }
  }

  bool snapshot(std::vector<std::int64_t>& out) const override {
    out.push_back(static_cast<std::int64_t>(ecc_.size()));
    for (std::size_t e : ecc_) out.push_back(static_cast<std::int64_t>(e));
    for (std::size_t e : expected_) out.push_back(static_cast<std::int64_t>(e));
    for (bool e : echoed_) out.push_back(e ? 1 : 0);
    for (std::size_t m : subtree_max_) out.push_back(static_cast<std::int64_t>(m));
    out.push_back(static_cast<std::int64_t>(dones_));
    out.push_back(static_cast<std::int64_t>(outbox_.size()));
    for (const auto& queue : outbox_) {
      out.push_back(static_cast<std::int64_t>(queue.size()));
      for (const Word& w : queue) {
        out.push_back(w.tag);
        out.push_back(w.a);
        out.push_back(w.b);
        out.push_back(w.quantum ? 1 : 0);
      }
    }
    return true;
  }

  bool restore(std::uint32_t version, std::span<const std::int64_t> words) override {
    if (version != 1) return false;
    std::size_t pos = 0;
    auto take = [&](std::int64_t& out) {
      if (pos >= words.size()) return false;
      out = words[pos++];
      return true;
    };
    auto take_sizes = [&](std::vector<std::size_t>& out, std::size_t count) {
      out.assign(count, 0);
      for (std::size_t i = 0; i < count; ++i) {
        std::int64_t w = 0;
        if (!take(w)) return false;
        out[i] = static_cast<std::size_t>(w);
      }
      return true;
    };
    std::int64_t w = 0;
    if (!take(w)) return false;
    const auto slots = static_cast<std::size_t>(w);
    std::vector<std::size_t> ecc;
    std::vector<std::size_t> expected;
    std::vector<bool> echoed(slots, false);
    std::vector<std::size_t> subtree_max;
    if (!take_sizes(ecc, slots) || !take_sizes(expected, slots)) return false;
    for (std::size_t i = 0; i < slots; ++i) {
      if (!take(w)) return false;
      echoed[i] = w != 0;
    }
    if (!take_sizes(subtree_max, slots)) return false;
    if (!take(w)) return false;
    const auto dones = static_cast<std::size_t>(w);
    if (!take(w)) return false;
    std::vector<std::deque<Word>> outbox(static_cast<std::size_t>(w));
    for (auto& queue : outbox) {
      if (!take(w)) return false;
      for (auto entries = static_cast<std::size_t>(w); entries > 0; --entries) {
        std::int64_t tag = 0;
        std::int64_t a = 0;
        std::int64_t b = 0;
        std::int64_t quantum = 0;
        if (!take(tag) || !take(a) || !take(b) || !take(quantum)) return false;
        queue.push_back(Word{static_cast<std::int32_t>(tag), a, b, quantum != 0});
      }
    }
    if (pos != words.size()) return false;
    ecc_ = std::move(ecc);
    expected_ = std::move(expected);
    echoed_ = std::move(echoed);
    subtree_max_ = std::move(subtree_max);
    dones_ = dones;
    outbox_ = std::move(outbox);
    return true;
  }

  std::uint32_t state_version() const override { return 1; }

 private:
  void queue_to(Context& ctx, NodeId target, Word word) {
    const auto& adj = ctx.neighbors();
    auto it = std::find(adj.begin(), adj.end(), target);
    if (it == adj.end()) throw std::logic_error("ecc echo: parent not a neighbor");
    outbox_[static_cast<std::size_t>(it - adj.begin())].push_back(word);
  }

  const std::vector<NodeId>* sources_;
  const std::vector<std::size_t>* dist_;
  const std::vector<NodeId>* parent_;
  std::vector<std::size_t> ecc_;
  std::vector<std::size_t> expected_;   // registered children minus echoes seen
  std::vector<bool> echoed_;
  std::vector<std::size_t> subtree_max_;
  std::size_t dones_ = 0;
  std::vector<std::deque<Word>> outbox_;
};

}  // namespace

MultiBfsResult multi_source_bfs(Engine& engine, const std::vector<NodeId>& sources,
                                std::size_t depth_limit) {
  const std::size_t n = engine.graph().num_nodes();
  if (sources.empty()) throw std::invalid_argument("multi_source_bfs: no sources");
  for (NodeId s : sources) {
    if (s >= n) throw std::invalid_argument("multi_source_bfs: source out of range");
  }
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    programs.push_back(std::make_unique<MultiBfsProgram>(&sources, depth_limit));
  }
  engine.set_program_factory([&sources, depth_limit](NodeId) {
    return std::make_unique<MultiBfsProgram>(&sources, depth_limit);
  });
  MultiBfsResult result;
  std::size_t limit = 8 * (sources.size() + n) + 32;
  result.cost = engine.run(programs, limit);
  if (!result.cost.completed) throw std::logic_error("multi_source_bfs: did not finish");
  result.dist.reserve(n);
  result.parent.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    result.dist.push_back(static_cast<MultiBfsProgram&>(*programs[v]).dist());
    result.parent.push_back(static_cast<MultiBfsProgram&>(*programs[v]).parent());
  }
  return result;
}

EccentricityEchoResult multi_source_eccentricities(Engine& engine,
                                                   const std::vector<NodeId>& sources,
                                                   std::size_t depth_limit) {
  const std::size_t n = engine.graph().num_nodes();
  EccentricityEchoResult result;
  result.bfs = multi_source_bfs(engine, sources, depth_limit);

  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    programs.push_back(std::make_unique<EccEchoProgram>(
        &sources, &result.bfs.dist[v], &result.bfs.parent[v]));
  }
  engine.set_program_factory([&sources, &result](NodeId v) {
    return std::make_unique<EccEchoProgram>(&sources, &result.bfs.dist[v],
                                            &result.bfs.parent[v]);
  });
  std::size_t limit = 8 * (sources.size() + n) + 64;
  result.echo_cost = engine.run(programs, limit);
  if (!result.echo_cost.completed) {
    throw std::logic_error("multi_source_eccentricities: echo did not finish");
  }
  result.eccentricity.assign(sources.size(), 0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    result.eccentricity[i] =
        static_cast<EccEchoProgram&>(*programs[sources[i]]).eccentricity()[i];
  }
  return result;
}

}  // namespace qcongest::net
