// Unit tests for the content-addressed result cache (src/cache): the
// SHA-256 digest, the canonical key builder (option-order independence,
// bit-exact floats, duplicate rejection), the on-disk store's durability
// contract (atomic publish, corrupt/truncated entries degrade to misses,
// oldest-first gc), the experiment DAG validator (named cycles) and
// runner (cache hits skip produce, failed deps poison dependents), and
// the qcongestd job-key derivation (threads/id excluded, seed/salt in).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cache/dag.hpp"
#include "src/cache/key.hpp"
#include "src/cache/sha256.hpp"
#include "src/cache/store.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/job.hpp"

namespace qcongest::cache {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------------ sha256

TEST(Sha256, MatchesKnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // 56 bytes: forces the length field into a second padding block.
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(sha256_hex(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, Fnv1a64MatchesReferenceValues) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

// -------------------------------------------------------------- KeyBuilder

TEST(KeyBuilder, FieldOrderNeverChangesTheKey) {
  KeyBuilder forward;
  forward.field("app", "bfs").field("nodes", std::uint64_t{15}).field("drop", 0.05);
  KeyBuilder backward;
  backward.field("drop", 0.05).field("nodes", std::uint64_t{15}).field("app", "bfs");
  EXPECT_EQ(forward.digest(), backward.digest());
  EXPECT_EQ(forward.canonical(), backward.canonical());
}

TEST(KeyBuilder, DigestIsSha256OfCanonical) {
  KeyBuilder key;
  key.field("x", std::uint64_t{1});
  EXPECT_EQ(key.digest(), sha256_hex(key.canonical()));
  EXPECT_EQ(key.digest().size(), 64u);
}

TEST(KeyBuilder, DoublesHashBitExactly) {
  // Decimal formatting would collapse distinct doubles; the bit-pattern
  // encoding must not.
  EXPECT_NE(canonical_double(0.0), canonical_double(-0.0));
  EXPECT_NE(canonical_double(0.1), canonical_double(0.1 + 1e-17));
  EXPECT_EQ(canonical_double(0.05), canonical_double(0.05));
  EXPECT_EQ(canonical_double(0.0), "f64:0000000000000000");

  KeyBuilder a, b;
  a.field("rate", 0.0);
  b.field("rate", -0.0);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(KeyBuilder, DuplicateFieldThrows) {
  KeyBuilder key;
  key.field("app", "bfs");
  EXPECT_THROW(key.field("app", "leader"), std::logic_error);
}

TEST(KeyBuilder, StringValuesCannotForgeFieldBoundaries) {
  // A value containing "\nother=1" must not produce the same canonical
  // bytes as genuinely setting field "other".
  KeyBuilder smuggled;
  smuggled.field("app", "bfs\nother=1");
  KeyBuilder honest;
  honest.field("app", "bfs").field("other", std::uint64_t{1});
  EXPECT_NE(smuggled.digest(), honest.digest());
}

TEST(KeyBuilder, FaultPlanIsOrderCanonical) {
  net::FaultPlan forward;
  forward.seed = 9;
  forward.link.drop = 0.05;
  forward.crashes.push_back(net::CrashEvent{2, 30, 60});
  forward.crashes.push_back(net::CrashEvent{1, 10, 20});
  forward.edge_overrides.push_back({{3, 4}, net::FaultRates{0.2, 0.0, 0.0}});
  forward.edge_overrides.push_back({{0, 1}, net::FaultRates{0.1, 0.0, 0.0}});
  net::FaultPlan backward = forward;
  std::swap(backward.crashes[0], backward.crashes[1]);
  std::swap(backward.edge_overrides[0], backward.edge_overrides[1]);

  KeyBuilder a, b;
  a.fault_plan("fault", forward);
  b.fault_plan("fault", backward);
  EXPECT_EQ(a.digest(), b.digest());

  net::FaultPlan different = forward;
  different.crashes[0].crash_round = 31;
  KeyBuilder c;
  c.fault_plan("fault", different);
  EXPECT_NE(a.digest(), c.digest());

  net::FaultPlan other_rate = forward;
  other_rate.edge_overrides[1].second.drop = 0.3;
  KeyBuilder d;
  d.fault_plan("fault", other_rate);
  EXPECT_NE(a.digest(), d.digest());
}

TEST(CodeVersionSalt, EnvironmentOverrides) {
  // Not parallel-safe with other env tests, but gtest runs serially.
  unsetenv("QCONGEST_CACHE_SALT");
  EXPECT_EQ(code_version_salt(), std::string(kCodeVersionSalt));
  setenv("QCONGEST_CACHE_SALT", "flip", 1);
  EXPECT_EQ(code_version_salt(), "flip");
  unsetenv("QCONGEST_CACHE_SALT");
}

// ------------------------------------------------------------------- store

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("cache_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// The single on-disk entry file for `key`.
  fs::path entry_path(const std::string& key) const {
    return root_ / "objects" / key.substr(0, 2) / key.substr(2);
  }

  fs::path root_;
};

TEST_F(StoreTest, RoundTripsBlobs) {
  Store store(root_.string());
  const std::string key = sha256_hex("job-1");
  std::string blob;
  EXPECT_FALSE(store.get(key, &blob));  // cold

  std::string error;
  ASSERT_TRUE(store.put(key, "payload bytes\nwith\nnewlines", &error)) << error;
  ASSERT_TRUE(store.get(key, &blob));
  EXPECT_EQ(blob, "payload bytes\nwith\nnewlines");

  const Store::Stats stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.corrupt_misses, 0u);
}

TEST_F(StoreTest, EmptyBlobRoundTrips) {
  Store store(root_.string());
  const std::string key = sha256_hex("empty");
  ASSERT_TRUE(store.put(key, ""));
  std::string blob = "sentinel";
  ASSERT_TRUE(store.get(key, &blob));
  EXPECT_EQ(blob, "");
}

TEST_F(StoreTest, RejectsHostileKeys) {
  Store store(root_.string());
  std::string blob;
  for (const char* bad : {"", "short", "../../../../etc/passwd",
                          "ABCDEF0123456789ABCDEF0123456789",
                          "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"}) {
    EXPECT_THROW(store.get(bad, &blob), std::invalid_argument) << bad;
    EXPECT_THROW(store.put(bad, "x"), std::invalid_argument) << bad;
  }
}

TEST_F(StoreTest, CorruptEntryDegradesToMissAndIsDropped) {
  Store store(root_.string());
  const std::string key = sha256_hex("corrupt-me");
  ASSERT_TRUE(store.put(key, "precious result"));

  // Flip one payload byte behind the store's back.
  {
    std::fstream f(entry_path(key), std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(-1, std::ios::end);
    f.put('X');
  }

  std::string blob = "sentinel";
  EXPECT_FALSE(store.get(key, &blob));  // miss, not a crash, not bad bytes
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
  EXPECT_FALSE(fs::exists(entry_path(key)));  // bad entry dropped

  // The recompute-and-reseal path works after the drop.
  ASSERT_TRUE(store.put(key, "precious result"));
  ASSERT_TRUE(store.get(key, &blob));
  EXPECT_EQ(blob, "precious result");
}

TEST_F(StoreTest, TruncatedEntryDegradesToMiss) {
  Store store(root_.string());
  const std::string key = sha256_hex("truncate-me");
  ASSERT_TRUE(store.put(key, "0123456789"));
  fs::resize_file(entry_path(key), fs::file_size(entry_path(key)) - 3);

  std::string blob;
  EXPECT_FALSE(store.get(key, &blob));
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST_F(StoreTest, GarbageHeaderDegradesToMiss) {
  Store store(root_.string());
  const std::string key = sha256_hex("garbage");
  fs::create_directories(entry_path(key).parent_path());
  std::ofstream(entry_path(key), std::ios::binary) << "not a qcache entry";

  std::string blob;
  EXPECT_FALSE(store.get(key, &blob));
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST_F(StoreTest, GcEvictsOldestFirstAndSweepsDebris) {
  Store store(root_.string());
  const std::string old_key = sha256_hex("old");
  const std::string new_key = sha256_hex("new");
  ASSERT_TRUE(store.put(old_key, std::string(100, 'o')));
  ASSERT_TRUE(store.put(new_key, std::string(100, 'n')));
  // Pin distinct mtimes so the eviction order is not a timing accident.
  const auto now = fs::last_write_time(entry_path(new_key));
  fs::last_write_time(entry_path(old_key), now - std::chrono::hours(1));

  // Crash debris in tmp/ must be swept regardless of budget.
  std::ofstream(root_ / "tmp" / "stale.0", std::ios::binary) << "debris";

  // Budget fits one entry (~130 bytes with header): the old one goes.
  const Store::GcResult result = store.gc(200);
  EXPECT_EQ(result.scanned, 2u);
  EXPECT_EQ(result.evicted, 1u);
  EXPECT_FALSE(fs::exists(entry_path(old_key)));
  EXPECT_TRUE(fs::exists(entry_path(new_key)));
  EXPECT_FALSE(fs::exists(root_ / "tmp" / "stale.0"));
  EXPECT_LE(result.bytes_after, 200u);
  EXPECT_GT(result.bytes_before, result.bytes_after);

  // max_bytes == 0 empties the store.
  const Store::GcResult wipe = store.gc(0);
  EXPECT_EQ(wipe.evicted, 1u);
  EXPECT_EQ(wipe.bytes_after, 0u);
}

TEST_F(StoreTest, GcBreaksEqualMtimeTiesByPathLexicographically) {
  // Coarse filesystem timestamps routinely give a burst of puts identical
  // mtimes; without a secondary key, which entries survive a tight budget
  // would depend on directory iteration order. The contract: among equal
  // mtimes, lexicographically smaller entry paths are evicted first.
  Store store(root_.string());
  const std::vector<std::string> keys = {
      sha256_hex("tie-a"), sha256_hex("tie-b"), sha256_hex("tie-c"),
      sha256_hex("tie-d")};
  for (const std::string& key : keys) {
    ASSERT_TRUE(store.put(key, std::string(100, 'x')));
  }
  const auto stamp = fs::last_write_time(entry_path(keys[0]));
  for (const std::string& key : keys) {
    fs::last_write_time(entry_path(key), stamp);
  }

  std::vector<std::string> paths;
  for (const std::string& key : keys) {
    paths.push_back(entry_path(key).generic_string());
  }
  std::sort(paths.begin(), paths.end());
  const std::uintmax_t entry_bytes = fs::file_size(entry_path(keys[0]));

  // Budget fits exactly two entries: the two lexicographically smallest
  // paths must be the ones evicted, every time.
  const Store::GcResult result = store.gc(2 * entry_bytes);
  EXPECT_EQ(result.evicted, 2u);
  EXPECT_FALSE(fs::exists(paths[0]));
  EXPECT_FALSE(fs::exists(paths[1]));
  EXPECT_TRUE(fs::exists(paths[2]));
  EXPECT_TRUE(fs::exists(paths[3]));
}

TEST_F(StoreTest, GcRemovesCorruptEntries) {
  Store store(root_.string());
  const std::string key = sha256_hex("rot");
  ASSERT_TRUE(store.put(key, "fine"));
  {
    std::fstream f(entry_path(key), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('?');
  }
  const Store::GcResult result = store.gc(1u << 20);
  EXPECT_EQ(result.corrupt_removed, 1u);
  EXPECT_FALSE(fs::exists(entry_path(key)));
}

TEST_F(StoreTest, ExportsMetrics) {
  Store store(root_.string());
  const std::string key = sha256_hex("metrics");
  std::string blob;
  (void)store.get(key, &blob);
  ASSERT_TRUE(store.put(key, "x"));
  (void)store.get(key, &blob);

  obs::MetricsRegistry registry;
  store.export_metrics(registry);
  const std::string json = [&] {
    obs::JsonWriter writer;
    registry.write_json(writer);
    return writer.str();
  }();
  EXPECT_NE(json.find("cache.hits"), std::string::npos);
  EXPECT_NE(json.find("cache.misses"), std::string::npos);
}

// --------------------------------------------------------------------- DAG

Experiment make_experiment(std::string name, std::vector<std::string> deps) {
  Experiment e;
  e.name = std::move(name);
  e.deps = std::move(deps);
  e.produce = [n = e.name]() { return "blob:" + n; };
  return e;
}

TEST(ExperimentDag, AcceptsAForest) {
  std::vector<Experiment> experiments;
  experiments.push_back(make_experiment("a", {}));
  experiments.push_back(make_experiment("b", {"a"}));
  experiments.push_back(make_experiment("c", {"a", "b"}));
  std::string error;
  EXPECT_TRUE(validate_experiment_dag(experiments, &error)) << error;
}

TEST(ExperimentDag, NamesTheCycle) {
  std::vector<Experiment> experiments;
  experiments.push_back(make_experiment("a", {"c"}));
  experiments.push_back(make_experiment("b", {"a"}));
  experiments.push_back(make_experiment("c", {"b"}));
  std::string error;
  EXPECT_FALSE(validate_experiment_dag(experiments, &error));
  // The full walk, not just "cycle detected": a -> c -> b -> a (rotations
  // are fine, but every participant must be named).
  EXPECT_NE(error.find("cycle"), std::string::npos);
  EXPECT_NE(error.find("a"), std::string::npos);
  EXPECT_NE(error.find("b"), std::string::npos);
  EXPECT_NE(error.find("c"), std::string::npos);
  EXPECT_NE(error.find("->"), std::string::npos);

  DagRunner runner(nullptr, nullptr);
  EXPECT_THROW(runner.run(experiments, 2), std::invalid_argument);
}

TEST(ExperimentDag, RejectsSelfLoopDuplicateAndUnknown) {
  std::string error;
  std::vector<Experiment> self = {make_experiment("a", {"a"})};
  EXPECT_FALSE(validate_experiment_dag(self, &error));
  EXPECT_NE(error.find("a -> a"), std::string::npos);

  std::vector<Experiment> dup = {make_experiment("a", {}),
                                 make_experiment("a", {})};
  EXPECT_FALSE(validate_experiment_dag(dup, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);

  std::vector<Experiment> unknown = {make_experiment("a", {"ghost"})};
  EXPECT_FALSE(validate_experiment_dag(unknown, &error));
  EXPECT_NE(error.find("ghost"), std::string::npos);
}

TEST(ExperimentDag, RunsDependenciesBeforeDependents) {
  // b and c depend on a; d on both. Order within a wave is unspecified,
  // but every dep must have completed before its dependent starts.
  std::atomic<int> stamp{0};
  std::vector<int> done(4, -1);
  std::vector<Experiment> experiments;
  auto node = [&](std::string name, std::vector<std::string> deps,
                  std::size_t slot) {
    Experiment e;
    e.name = std::move(name);
    e.deps = std::move(deps);
    e.produce = [&done, &stamp, slot]() {
      done[slot] = stamp.fetch_add(1);
      return std::string("ok");
    };
    return e;
  };
  experiments.push_back(node("a", {}, 0));
  experiments.push_back(node("b", {"a"}, 1));
  experiments.push_back(node("c", {"a"}, 2));
  experiments.push_back(node("d", {"b", "c"}, 3));

  DagRunner runner(nullptr, nullptr);
  const std::vector<ExperimentResult> results = runner.run(experiments, 4);
  ASSERT_EQ(results.size(), 4u);
  for (const ExperimentResult& result : results) {
    EXPECT_TRUE(result.ok) << result.name << ": " << result.error;
  }
  EXPECT_LT(done[0], done[1]);
  EXPECT_LT(done[0], done[2]);
  EXPECT_LT(done[1], done[3]);
  EXPECT_LT(done[2], done[3]);
}

TEST(ExperimentDag, CacheHitSkipsProduceAndCountsMetrics) {
  const fs::path root =
      fs::path(::testing::TempDir()) / "cache_test_dag_store";
  fs::remove_all(root);
  Store store(root.string());

  std::atomic<int> produced{0};
  auto experiment = [&] {
    Experiment e;
    e.name = "cached";
    e.key = sha256_hex("dag-cached-node");
    e.produce = [&produced]() {
      produced.fetch_add(1);
      return std::string("expensive result");
    };
    return e;
  };

  obs::MetricsRegistry cold_metrics;
  DagRunner cold(&store, &cold_metrics);
  std::vector<ExperimentResult> first = cold.run({experiment()}, 1);
  ASSERT_TRUE(first[0].ok);
  EXPECT_FALSE(first[0].from_cache);
  EXPECT_EQ(produced.load(), 1);

  obs::MetricsRegistry warm_metrics;
  DagRunner warm(&store, &warm_metrics);
  std::vector<ExperimentResult> second = warm.run({experiment()}, 1);
  ASSERT_TRUE(second[0].ok);
  EXPECT_TRUE(second[0].from_cache);
  EXPECT_EQ(second[0].blob, "expensive result");
  EXPECT_EQ(produced.load(), 1);  // produce never re-ran

  const std::string json = [&] {
    obs::JsonWriter writer;
    warm_metrics.write_json(writer);
    return writer.str();
  }();
  EXPECT_NE(json.find("dag.cache_hits"), std::string::npos);
  fs::remove_all(root);
}

TEST(ExperimentDag, FailedDependencyPoisonsDependents) {
  std::vector<Experiment> experiments;
  Experiment boom;
  boom.name = "boom";
  boom.produce = []() -> std::string {
    throw std::runtime_error("exploded on purpose");
  };
  experiments.push_back(std::move(boom));
  experiments.push_back(make_experiment("downstream", {"boom"}));
  experiments.push_back(make_experiment("unrelated", {}));

  DagRunner runner(nullptr, nullptr);
  const std::vector<ExperimentResult> results = runner.run(experiments, 2);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("exploded"), std::string::npos);
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("boom"), std::string::npos);
  EXPECT_TRUE(results[2].ok);  // failure never leaks across the DAG
}

}  // namespace
}  // namespace qcongest::cache

// ------------------------------------------------------- qcongestd job key

namespace qcongest::serve {
namespace {

JobSpec basic_spec() {
  JobSpec spec;
  spec.id = "job-1";
  spec.app = "bfs";
  spec.graph = "tree";
  spec.nodes = 12;
  spec.seed = 7;
  spec.threads = 1;
  return spec;
}

TEST(JobCacheKey, IdAndThreadsNeverAffectTheKey) {
  // The reply body is a pure function of the semantic spec; the client's
  // reply token and the engine thread budget must share one entry.
  JobSpec a = basic_spec();
  JobSpec b = basic_spec();
  b.id = "completely-different";
  b.threads = 8;
  EXPECT_EQ(job_cache_key(a, 1000, "salt"), job_cache_key(b, 1000, "salt"));
}

TEST(JobCacheKey, SemanticFieldsAllChangeTheKey) {
  const JobSpec base = basic_spec();
  const std::string key = job_cache_key(base, 1000, "salt");

  JobSpec seed = base;
  seed.seed = 8;
  EXPECT_NE(job_cache_key(seed, 1000, "salt"), key);

  JobSpec app = base;
  app.app = "leader";
  EXPECT_NE(job_cache_key(app, 1000, "salt"), key);

  JobSpec drop = base;
  drop.drop = 0.05;
  EXPECT_NE(job_cache_key(drop, 1000, "salt"), key);

  JobSpec crash = base;
  crash.crashes.push_back(JobSpec::Crash{3, 30, 60, false});
  EXPECT_NE(job_cache_key(crash, 1000, "salt"), key);

  EXPECT_NE(job_cache_key(base, 1000, "other-salt"), key);
  EXPECT_NE(job_cache_key(base, 2000, "salt"), key);  // effective deadline
}

TEST(JobCacheKey, EffectiveValuesCollapseEquivalentSpecs) {
  // An explicit deadline equal to the server default, and an explicit
  // fault_seed equal to the seed*1000 convention, are the same job.
  JobSpec defaulted = basic_spec();
  JobSpec explicit_spec = basic_spec();
  explicit_spec.deadline_rounds = 1000;
  explicit_spec.fault_seed = 7000;
  explicit_spec.fault_seed_set = true;
  EXPECT_EQ(job_cache_key(defaulted, 1000, "salt"),
            job_cache_key(explicit_spec, 1000, "salt"));

  // ...but a genuinely different fault lottery is a different job.
  JobSpec other_lottery = basic_spec();
  other_lottery.fault_seed = 1234;
  other_lottery.fault_seed_set = true;
  EXPECT_NE(job_cache_key(other_lottery, 1000, "salt"),
            job_cache_key(defaulted, 1000, "salt"));
}

}  // namespace
}  // namespace qcongest::serve
