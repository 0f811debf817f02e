#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "perfbench/bench.hpp"
#include "src/apps/registry.hpp"

namespace perfbench {

namespace {

using qcongest::serve::JobSpec;

/// Nodes the registry graph factory actually builds for a requested size
/// (grid rounds down to a square), so crash windows name a real node.
std::size_t built_nodes(const std::string& family, std::size_t nodes) {
  if (family != "grid") return nodes;
  std::size_t side = 1;
  while ((side + 1) * (side + 1) <= nodes) ++side;
  return side * side;
}

}  // namespace

SpecGenerator::SpecGenerator(std::uint64_t seed) : seed_(seed) {}

std::size_t SpecGenerator::node_cap(const std::string& family) {
  // Caps keep any one job from dominating a run: reliable-transport cost
  // grows with edges times rounds, so dense families stop early. path stays
  // at 128 on purpose: reliable-transport runs on paths of 95+ nodes fail
  // today (build_bfs_tree: node unreachable from root), and that defect
  // must stay visible in apps.sim_failed_share.
  if (family == "complete") return 24;
  if (family == "star" || family == "random") return 48;
  if (family == "cycle") return 64;
  if (family == "tree" || family == "grid") return 81;
  return 128;  // path
}

JobSpec SpecGenerator::make(std::size_t index) const {
  static const std::vector<std::string> apps = qcongest::apps::app_names();
  static const std::vector<std::string> families = qcongest::apps::graph_families();
  // Which (app, family, class slot) this index gets: a seeded shuffle of
  // one full block of combinations.
  const std::size_t block = index / kBlock;
  std::vector<std::size_t> order(kBlock);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 block_rng(mix64(seed_ ^ mix64(block + 1)));
  std::shuffle(order.begin(), order.end(), block_rng);
  const std::size_t slot = order[index % kBlock];
  const std::size_t app = slot % apps.size();
  const std::size_t family = (slot / apps.size()) % families.size();
  const std::size_t class_slot = slot / (apps.size() * families.size());
  enum class Traffic { kClean, kFaulty, kCrash };
  const Traffic traffic = class_slot < 4   ? Traffic::kClean
                          : class_slot < 6 ? Traffic::kFaulty
                                           : Traffic::kCrash;

  // Sizes, fault rates and crash windows rotate through fixed ladders, so
  // every block holds the same multiset of (app, family, class, nodes,
  // rates, windows) for any seed; the seed moves the order, the engine
  // seeds and so the fault lotteries. Seven node levels span
  // [kMinNodes, cap] per family.
  const std::size_t level = (class_slot + app + family) % 7;
  JobSpec spec;
  spec.id = 'j' + std::to_string(index);
  spec.app = apps[app];
  spec.graph = families[family];
  const std::size_t cap = node_cap(spec.graph);
  spec.nodes = kMinNodes + (cap - kMinNodes) * level / 6;
  // Unique per index (the low 22 bits), seeded above them.
  spec.seed = ((mix64(seed_) & 0xFFFFFULL) << 22) | (index & 0x3FFFFFULL);
  spec.threads = 1;
  if (traffic == Traffic::kClean) {
    spec.transport = qcongest::net::Transport::kDirect;
  } else if (traffic == Traffic::kFaulty) {
    spec.transport = qcongest::net::Transport::kReliable;
    spec.drop = 0.01 * static_cast<double>(1 + (app + family + class_slot) % 3);
    spec.corrupt = (app + class_slot) % 2 == 0 ? 0.01 : 0.0;
    spec.duplicate = (family + class_slot) % 2 == 0 ? 0.01 : 0.0;
  } else {
    spec.transport = qcongest::net::Transport::kReliable;
    JobSpec::Crash crash;
    const std::size_t built = built_nodes(spec.graph, spec.nodes);
    crash.node = static_cast<qcongest::net::NodeId>(1 + (built - 2) * ((app + level) % 7) / 6);
    crash.crash_round = 20 + 4 * level;
    crash.restart_round = crash.crash_round + 20 + 4 * ((app + family) % 6);
    crash.amnesia = true;
    spec.crashes.push_back(crash);
    spec.recover = true;
  }
  return spec;
}

std::string format_prob(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", p);
  return buf;
}

std::string spec_text(const JobSpec& spec) {
  std::string text = "id=" + spec.id + "\napp=" + spec.app + "\ngraph=" + spec.graph +
                     "\nnodes=" + std::to_string(spec.nodes) +
                     "\nseed=" + std::to_string(spec.seed) +
                     "\nthreads=" + std::to_string(spec.threads) + "\ntransport=" +
                     (spec.transport == qcongest::net::Transport::kReliable
                          ? "reliable"
                          : "direct") +
                     "\n";
  if (spec.drop > 0.0) text += "drop=" + format_prob(spec.drop) + "\n";
  if (spec.corrupt > 0.0) text += "corrupt=" + format_prob(spec.corrupt) + "\n";
  if (spec.duplicate > 0.0) text += "duplicate=" + format_prob(spec.duplicate) + "\n";
  for (const JobSpec::Crash& c : spec.crashes) {
    text += "crash=" + std::to_string(static_cast<std::size_t>(c.node)) + ":" +
            std::to_string(c.crash_round) + ":" + std::to_string(c.restart_round) +
            (c.amnesia ? ":amnesia" : "") + "\n";
  }
  if (spec.recover) text += "recover=1\n";
  return text;
}

}  // namespace perfbench
