// Protocol inspector: attach a message trace to the engine and watch a
// Theorem 8 query batch flow through the network round by round — the
// pipelined index downcast, the aggregating convergecast, and the
// uncompute mirrors.
//
//   ./example_protocol_inspector

#include <cstdio>

#include "src/framework/distributed_oracle.hpp"
#include "src/net/bfs.hpp"
#include "src/net/generators.hpp"
#include "src/net/trace.hpp"

using namespace qcongest;

int main() {
  net::Graph graph = net::binary_tree(15);
  net::Engine engine(graph, 1, 1);
  net::Trace trace;
  engine.set_observers({&trace});

  auto election = net::elect_leader(engine);
  net::BfsTree tree = net::build_bfs_tree(engine, election.leader);
  std::printf("topology: binary tree, n=%zu, leader=%zu, height=%zu\n",
              graph.num_nodes(), election.leader, tree.height);
  std::printf("\nleader election + BFS build: %zu messages\n", trace.size());

  // One Theorem 8 batch: 4 parallel queries over a 64-slot domain.
  framework::OracleConfig config;
  config.domain_size = 64;
  config.parallelism = 4;
  config.value_bits = 8;
  config.combine = [](std::int64_t a, std::int64_t b) { return a + b; };
  config.identity = 0;
  std::vector<std::vector<query::Value>> data(graph.num_nodes(),
                                              std::vector<query::Value>(64, 1));
  framework::DistributedOracle oracle(engine, tree, config, data);

  trace.clear();
  std::vector<std::size_t> batch{3, 17, 42, 63};
  auto values = oracle.query(batch);
  std::printf("\none charged batch (p=4, q=8 bits): %zu rounds, %zu messages\n",
              oracle.total_cost().rounds, trace.size());
  std::printf("values: %lld %lld %lld %lld (every node contributed 1)\n\n",
              static_cast<long long>(values[0]), static_cast<long long>(values[1]),
              static_cast<long long>(values[2]), static_cast<long long>(values[3]));

  std::printf("activity timeline (messages per round):\n%s\n",
              trace.render_timeline(48).c_str());

  auto busiest = trace.busiest_edges(3);
  std::printf("busiest directed edges:\n");
  for (const auto& [edge, count] : busiest) {
    std::printf("  %zu -> %zu : %zu words\n", edge.first, edge.second, count);
  }
  return 0;
}
