// qcongest_cli — run any of the paper's algorithms on a generated network
// from the command line, printing the answer and the measured round costs.
//
//   qcongest_cli <problem> [--graph FAMILY] [--nodes N] [--k K]
//                [--epsilon E] [--seed S] [--girth G] [--report PATH]
//
// problems:  diameter | radius | avgecc | girth | cycle | meeting | dj
//            | distinctness | exactcycle
// families:  path | cycle | grid | star | tree | random | petersen
//            | two-stars | cycle-trees | lollipop
//
// --report PATH writes a schema-versioned run report (src/obs): one section
// per printed cost line with the full RunResult counters, plus — for the
// problems that accept a NetOptions (diameter, radius, meeting, dj) — the
// per-round traffic series, phase spans, and a trace digest. The document
// is fully deterministic for a fixed seed (see DESIGN.md §10).
//
// Examples:
//   qcongest_cli diameter --graph two-stars --nodes 64
//   qcongest_cli meeting --graph path --nodes 9 --k 4096
//   qcongest_cli girth --graph cycle-trees --nodes 50 --girth 6
//   qcongest_cli dj --nodes 16 --k 64 --report dj_report.json

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/cycle_detection.hpp"
#include "src/apps/deutsch_jozsa.hpp"
#include "src/apps/eccentricity.hpp"
#include "src/apps/element_distinctness.hpp"
#include "src/apps/even_cycle.hpp"
#include "src/apps/girth.hpp"
#include "src/apps/meeting_scheduling.hpp"
#include "src/apps/twoparty.hpp"
#include "src/net/generators.hpp"
#include "src/net/trace.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/round_profiler.hpp"
#include "src/obs/run_report.hpp"
#include "src/util/parse.hpp"

using namespace qcongest;

namespace {

struct Options {
  std::string problem;
  std::string graph = "random";
  std::size_t nodes = 32;
  std::size_t k = 256;
  std::size_t girth = 4;
  std::size_t bandwidth = 1;
  double epsilon = 1.0;
  std::uint64_t seed = 1;
  std::string report;  // when non-empty, write a run report here
};

void usage() {
  std::puts(
      "usage: qcongest_cli <problem> [--graph FAMILY] [--nodes N] [--k K]\n"
      "                    [--epsilon E] [--seed S] [--girth G] [--bandwidth B]\n"
      "                    [--report PATH]\n"
      "problems: diameter radius avgecc girth cycle meeting dj distinctness\n"
      "          exactcycle\n"
      "families: path cycle grid star tree random petersen two-stars\n"
      "          cycle-trees lollipop\n"
      "--report PATH: write a deterministic, schema-versioned JSON run report");
}

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.problem = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    auto bad_number = [&] {
      std::fprintf(stderr, "bad %s: %s\n", flag.c_str(), value.c_str());
      return false;
    };
    if (flag == "--graph") {
      opt.graph = value;
    } else if (flag == "--nodes") {
      if (!util::parse_size(value, &opt.nodes)) return bad_number();
    } else if (flag == "--k") {
      if (!util::parse_size(value, &opt.k)) return bad_number();
    } else if (flag == "--girth") {
      if (!util::parse_size(value, &opt.girth)) return bad_number();
    } else if (flag == "--epsilon") {
      if (!util::parse_decimal(value, &opt.epsilon)) return bad_number();
    } else if (flag == "--seed") {
      if (!util::parse_u64(value, &opt.seed)) return bad_number();
    } else if (flag == "--bandwidth") {
      if (!util::parse_size(value, &opt.bandwidth)) return bad_number();
    } else if (flag == "--report") {
      opt.report = value;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

net::Graph make_graph(const Options& opt, util::Rng& rng) {
  const std::size_t n = std::max<std::size_t>(opt.nodes, 2);
  if (opt.graph == "path") return net::path_graph(n);
  if (opt.graph == "cycle") return net::cycle_graph(std::max<std::size_t>(n, 3));
  if (opt.graph == "grid") return net::grid_graph(std::max<std::size_t>(n / 8, 2), 8);
  if (opt.graph == "star") return net::star_graph(n);
  if (opt.graph == "tree") return net::binary_tree(n);
  if (opt.graph == "petersen") return net::petersen_graph();
  if (opt.graph == "two-stars") return net::two_stars_graph(n / 2, n / 2, 2);
  if (opt.graph == "cycle-trees") {
    return net::cycle_with_trees(opt.girth, std::max(n, opt.girth), rng);
  }
  if (opt.graph == "lollipop") return net::lollipop_graph(n / 2, n / 2);
  if (opt.graph == "random") return net::random_connected_graph(n, n, rng);
  throw std::invalid_argument("unknown graph family: " + opt.graph);
}

/// Everything --report needs, accumulated while the problem runs: the taps
/// handed to apps that take a NetOptions, plus every printed cost line.
struct ReportState {
  bool enabled = false;
  net::Trace trace;
  obs::RoundProfiler profiler;
  std::vector<std::pair<std::string, net::RunResult>> costs;
};

int run_problem(const Options& opt, ReportState& rs) {
  util::Rng rng(opt.seed);
  net::Graph graph = make_graph(opt, rng);
  std::printf("graph: %s  n=%zu m=%zu D=%zu\n", opt.graph.c_str(), graph.num_nodes(),
              graph.num_edges(), graph.diameter());

  auto print_cost = [&rs](const char* label, const net::RunResult& cost) {
    std::printf("  %-22s %8zu rounds  %10zu messages  (%zu quantum words)\n", label,
                cost.rounds, cost.messages, cost.quantum_words);
    rs.costs.emplace_back(label, cost);
  };
  apps::NetOptions net_options;
  net_options.bandwidth = opt.bandwidth;
  net_options.seed = opt.seed;
  if (rs.enabled) {
    net_options.trace = &rs.trace;
    net_options.metrics = &rs.profiler;
  }

  if (opt.problem == "diameter" || opt.problem == "radius") {
    bool diameter = opt.problem == "diameter";
    auto quantum = diameter ? apps::diameter_quantum(graph, rng, net_options)
                            : apps::radius_quantum(graph, rng, net_options);
    auto classical = diameter ? apps::diameter_classical(graph, net_options)
                              : apps::radius_classical(graph, net_options);
    std::printf("%s: quantum=%zu classical=%zu truth=%zu\n", opt.problem.c_str(),
                quantum.value, classical.value,
                diameter ? graph.diameter() : graph.radius());
    print_cost("quantum (Lemma 21)", quantum.cost);
    print_cost("classical (APSP)", classical.cost);
    return 0;
  }
  if (opt.problem == "avgecc") {
    auto result = apps::average_eccentricity_quantum(graph, opt.epsilon, rng);
    auto classical = apps::average_eccentricity_classical(graph);
    std::printf("average eccentricity: estimate=%.4f truth=%.4f (eps=%.2f)\n",
                result.estimate, graph.average_eccentricity(), opt.epsilon);
    print_cost("quantum (Lemma 22)", result.cost);
    print_cost("classical (APSP)", classical.cost);
    return 0;
  }
  if (opt.problem == "girth") {
    auto quantum = apps::girth_quantum(graph, 0.5, rng);
    auto classical = apps::girth_classical(graph);
    auto show = [](const std::optional<std::size_t>& g) {
      return g ? static_cast<long long>(*g) : -1LL;
    };
    std::printf("girth: quantum=%lld classical=%lld truth=%lld\n", show(quantum.girth),
                show(classical.girth), show(graph.girth()));
    print_cost("quantum (Cor 26)", quantum.cost);
    std::printf("  %-22s %8zu rounds (charged clustering)\n", "",
                quantum.charged_rounds);
    print_cost("classical (all-BFS)", classical.cost);
    return 0;
  }
  if (opt.problem == "cycle") {
    auto result = apps::cycle_detection(graph, std::max<std::size_t>(opt.k, 3), rng);
    if (result.cycle_length) {
      std::printf("cycle of length <= %zu: found length %zu\n", opt.k,
                  *result.cycle_length);
    } else {
      std::printf("cycle of length <= %zu: none found\n", opt.k);
    }
    print_cost("quantum (Lemma 23)", result.cost);
    return 0;
  }
  if (opt.problem == "exactcycle") {
    auto result = apps::exact_cycle_detection(graph, std::min<std::size_t>(opt.k, 6),
                                              rng);
    std::printf("cycle of length exactly %zu: %s (%zu repetitions)\n",
                std::min<std::size_t>(opt.k, 6), result.found ? "found" : "not found",
                result.repetitions);
    print_cost("color coding", result.cost);
    return 0;
  }
  if (opt.problem == "meeting") {
    apps::Calendars calendars(graph.num_nodes(),
                              std::vector<query::Value>(opt.k, 0));
    for (auto& row : calendars) {
      for (auto& slot : row) slot = rng.bernoulli(0.3) ? 1 : 0;
    }
    auto reference = apps::meeting_scheduling_reference(calendars);
    auto quantum = apps::meeting_scheduling_quantum(graph, calendars, rng, net_options);
    auto classical = apps::meeting_scheduling_classical(graph, calendars, net_options);
    std::printf("meeting scheduling over k=%zu slots: best slot %zu with %lld "
                "available (truth: %lld)\n",
                opt.k, quantum.best_slot, static_cast<long long>(quantum.availability),
                static_cast<long long>(reference.availability));
    print_cost("quantum (Lemma 10)", quantum.cost);
    print_cost("classical (gather)", classical.cost);
    return 0;
  }
  if (opt.problem == "dj") {
    std::size_t k = opt.k % 2 == 0 ? opt.k : opt.k + 1;
    auto gadget = apps::deutsch_jozsa_gadget(k, std::max(graph.diameter(), std::size_t{1}),
                                             rng.bernoulli(0.5), rng);
    auto quantum = apps::deutsch_jozsa_quantum(gadget.graph, gadget.data, net_options);
    auto classical =
        apps::deutsch_jozsa_classical_exact(gadget.graph, gadget.data, net_options);
    std::printf("deutsch-jozsa (k=%zu, planted %s): quantum says %s\n", k,
                gadget.balanced ? "balanced" : "constant",
                quantum.verdict == query::DjVerdict::kBalanced ? "balanced"
                                                               : "constant");
    print_cost("quantum (Thm 17)", quantum.cost);
    print_cost("classical exact", classical.cost);
    return 0;
  }
  if (opt.problem == "distinctness") {
    std::vector<query::Value> values(graph.num_nodes());
    for (auto& v : values) {
      v = static_cast<query::Value>(rng.index(4 * graph.num_nodes()));
    }
    auto quantum = apps::element_distinctness_nodes_quantum(
        graph, values, static_cast<std::int64_t>(4 * graph.num_nodes()), rng);
    auto classical = apps::element_distinctness_nodes_classical(
        graph, values, static_cast<std::int64_t>(4 * graph.num_nodes()));
    if (classical.collision) {
      std::printf("duplicate: nodes %zu and %zu share value %lld (quantum %s)\n",
                  classical.collision->i, classical.collision->j,
                  static_cast<long long>(values[classical.collision->i]),
                  quantum.collision ? "agrees" : "missed it this run");
    } else {
      std::printf("all %zu node values distinct (quantum agrees: %s)\n",
                  graph.num_nodes(), quantum.collision ? "NO" : "yes");
    }
    print_cost("quantum (Cor 14)", quantum.cost);
    print_cost("classical (gather)", classical.cost);
    return 0;
  }
  std::fprintf(stderr, "unknown problem: %s\n", opt.problem.c_str());
  return 2;
}

int write_report(const Options& opt, const ReportState& rs) {
  obs::RunReport report("qcongest_cli");

  // Overview section: run parameters, the profiler's per-round series and
  // phase spans, the trace digest, and totals across every cost line.
  obs::RunReport::Section& overview = report.add_section(opt.problem);
  overview.set_label("problem", opt.problem);
  overview.set_label("graph", opt.graph);
  overview.set_label("nodes", std::to_string(opt.nodes));
  overview.set_label("k", std::to_string(opt.k));
  overview.set_label("bandwidth", std::to_string(opt.bandwidth));
  overview.set_label("seed", std::to_string(opt.seed));
  overview.set_outcome(true);
  overview.set_profile(rs.profiler);
  overview.set_trace(rs.trace);
  obs::MetricsRegistry metrics;
  metrics.count("cost_lines", rs.costs.size());
  for (const auto& [label, cost] : rs.costs) {
    metrics.count("total_rounds", cost.rounds);
    metrics.count("total_messages", cost.messages);
    metrics.count("total_quantum_words", cost.quantum_words);
  }
  overview.set_metrics(metrics);

  // One section per printed cost line, carrying the full RunResult.
  for (const auto& [label, cost] : rs.costs) {
    obs::RunReport::Section& section = report.add_section(opt.problem + "/" + label);
    section.set_label("variant", label);
    section.set_result(cost);
  }

  std::string error;
  if (!obs::json_valid(report.to_json(), &error)) {
    std::fprintf(stderr, "error: report self-validation failed: %s\n", error.c_str());
    return 1;
  }
  if (!report.write(opt.report, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("report: %s (%zu sections)\n", opt.report.c_str(),
              report.sections().size());
  return 0;
}

int run(const Options& opt) {
  ReportState rs;
  rs.enabled = !opt.report.empty();
  int code = run_problem(opt, rs);
  if (rs.enabled && code == 0) code = write_report(opt, rs);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
