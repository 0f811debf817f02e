// The durability layer's contract, attacked from below: the record codec
// and the torn-tail/corruption-tolerant recovery scan are fuzzed byte by
// byte (every truncation point, every bit-flipped byte of a middle
// record), and the two replay invariants are pinned directly —
//   1. recovery never re-runs a job any surviving record proves terminal;
//   2. recovery never drops a job whose accepted record survives.
// On top sit the writer (rotation, compaction, degrade-on-EIO) and the
// Service integration: replay on construction, accepted-before-reply
// ordering, in-flight coalescing, and serving through a dead journal.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/cache/key.hpp"
#include "src/cache/store.hpp"
#include "src/serve/job.hpp"
#include "src/serve/journal.hpp"
#include "src/serve/service.hpp"

namespace {

namespace fs = std::filesystem;
using namespace qcongest;
using namespace qcongest::serve;

std::string unique_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

JournalRecord accepted_record(const std::string& key, const std::string& id,
                              const std::string& spec) {
  JournalRecord record;
  record.type = JournalRecordType::kAccepted;
  record.key = key;
  record.id = id;
  record.spec = spec;
  return record;
}

JournalRecord lifecycle(JournalRecordType type, const std::string& key,
                        const std::string& id) {
  JournalRecord record;
  record.type = type;
  record.key = key;
  record.id = id;
  return record;
}

void write_segment(const std::string& dir, const std::string& name,
                   const std::string& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir + "/" + name, std::ios::binary | std::ios::trunc);
  out << bytes;
}

const std::string kKeyA(32, 'a');
const std::string kKeyB(32, 'b');
const std::string kKeyC(32, 'c');

// --- Record codec ------------------------------------------------------------

TEST(JournalRecord, EncodeDecodeRoundTripAllTypes) {
  std::vector<JournalRecord> originals;
  originals.push_back(
      accepted_record(kKeyA, "job-1", "id=job-1\napp=bfs\nnodes=8\nseed=3\n"));
  originals.push_back(lifecycle(JournalRecordType::kStarted, kKeyA, "job-1"));
  originals.push_back(lifecycle(JournalRecordType::kCompleted, kKeyA, "job-1"));
  JournalRecord aborted = lifecycle(JournalRecordType::kAborted, kKeyB, "job-2");
  aborted.reason = "spec rejected: too many nodes";
  originals.push_back(aborted);

  std::string bytes;
  for (const JournalRecord& record : originals) {
    bytes += encode_journal_record(record);
  }
  std::vector<JournalRecord> decoded;
  JournalScanStats stats;
  scan_journal_segment(bytes, &decoded, &stats);

  ASSERT_EQ(decoded.size(), originals.size());
  EXPECT_EQ(stats.records, originals.size());
  EXPECT_EQ(stats.corrupt_records, 0u);
  EXPECT_FALSE(stats.torn_tail);
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(decoded[i].type, originals[i].type);
    EXPECT_EQ(decoded[i].key, originals[i].key);
    EXPECT_EQ(decoded[i].id, originals[i].id);
    EXPECT_EQ(decoded[i].spec, originals[i].spec);
    EXPECT_EQ(decoded[i].reason, originals[i].reason);
  }
}

TEST(JournalRecord, SpecBytesSurviveVerbatim) {
  // The spec is the replay input; any mangling would change the rerun.
  // Give it everything the codec could trip on: blank lines, '=' signs,
  // even a line that looks like a record header.
  const std::string spec =
      "id=tricky\napp=bfs\n\nqwal1 accepted 3 0123456789abcdef\nx=y=z\n";
  const std::string bytes =
      encode_journal_record(accepted_record(kKeyA, "tricky", spec));
  std::vector<JournalRecord> decoded;
  JournalScanStats stats;
  scan_journal_segment(bytes, &decoded, &stats);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].spec, spec);
  EXPECT_EQ(stats.corrupt_records, 0u);
}

// --- Torn tails, every cut point ---------------------------------------------

TEST(JournalScan, TornTailAtEveryTruncationPoint) {
  const std::string r1 = encode_journal_record(
      accepted_record(kKeyA, "j1", "id=j1\napp=bfs\nnodes=8\n"));
  const std::string r2 =
      encode_journal_record(lifecycle(JournalRecordType::kStarted, kKeyA, "j1"));
  const std::string r3 = encode_journal_record(
      lifecycle(JournalRecordType::kCompleted, kKeyA, "j1"));
  const std::string full = r1 + r2 + r3;
  const std::size_t boundary = r1.size() + r2.size();

  for (std::size_t cut = boundary; cut < full.size(); ++cut) {
    std::vector<JournalRecord> decoded;
    JournalScanStats stats;
    scan_journal_segment(std::string_view(full).substr(0, cut), &decoded,
                         &stats);
    ASSERT_EQ(decoded.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(stats.corrupt_records, 0u) << "cut at " << cut;
    EXPECT_EQ(stats.torn_tail, cut > boundary) << "cut at " << cut;
  }
}

// --- Bit flips, every byte of a middle record --------------------------------

TEST(JournalScan, BitFlippedMiddleRecordNeverTakesDownItsNeighbors) {
  const std::string r1 = encode_journal_record(
      accepted_record(kKeyA, "j1", "id=j1\napp=bfs\nnodes=8\n"));
  const std::string r2 = encode_journal_record(
      accepted_record(kKeyB, "j2", "id=j2\napp=leader\nnodes=9\n"));
  const std::string r3 = encode_journal_record(
      lifecycle(JournalRecordType::kCompleted, kKeyC, "j3"));
  const std::string full = r1 + r2 + r3;

  for (std::size_t i = r1.size(); i < r1.size() + r2.size(); ++i) {
    std::string mutated = full;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    std::vector<JournalRecord> decoded;
    JournalScanStats stats;
    scan_journal_segment(mutated, &decoded, &stats);
    // The flipped record dies (checksum or framing), its neighbors do not.
    ASSERT_EQ(decoded.size(), 2u) << "flip at " << i;
    EXPECT_EQ(decoded[0].key, kKeyA) << "flip at " << i;
    EXPECT_EQ(decoded[1].key, kKeyC) << "flip at " << i;
    EXPECT_GE(stats.corrupt_records, 1u) << "flip at " << i;
    EXPECT_FALSE(stats.torn_tail) << "flip at " << i;
  }
}

// --- Corrupted length prefixes -----------------------------------------------

TEST(JournalScan, OversizedLengthPrefixMidFileResyncsToNextRecord) {
  // A header whose length claims far past the actual payload must not
  // swallow the valid record behind it.
  const std::string bogus =
      "qwal1 accepted 999999 0123456789abcdef\nshort payload\n";
  const std::string good = encode_journal_record(
      accepted_record(kKeyB, "ok", "id=ok\napp=bfs\nnodes=8\n"));
  std::vector<JournalRecord> decoded;
  JournalScanStats stats;
  scan_journal_segment(bogus + good, &decoded, &stats);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].key, kKeyB);
  EXPECT_GE(stats.corrupt_records, 1u);
}

TEST(JournalScan, OversizedLengthPrefixAtEofIsATornTail) {
  const std::string good = encode_journal_record(
      accepted_record(kKeyA, "ok", "id=ok\napp=bfs\nnodes=8\n"));
  const std::string bogus = "qwal1 accepted 999999 0123456789abcdef\nshort\n";
  std::vector<JournalRecord> decoded;
  JournalScanStats stats;
  scan_journal_segment(good + bogus, &decoded, &stats);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].key, kKeyA);
  EXPECT_TRUE(stats.torn_tail);
}

TEST(JournalScan, AbsurdLengthPrefixIsRejectedOutright) {
  // Over the hard payload cap: rejected at the header, not trusted enough
  // to even look for the payload.
  const std::string bogus =
      "qwal1 accepted 99999999 0123456789abcdef\n" + std::string(64, 'x');
  const std::string good = encode_journal_record(
      accepted_record(kKeyB, "ok", "id=ok\napp=bfs\nnodes=8\n"));
  std::vector<JournalRecord> decoded;
  JournalScanStats stats;
  scan_journal_segment(bogus + "\n" + good, &decoded, &stats);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].key, kKeyB);
  EXPECT_GE(stats.corrupt_records, 1u);
}

// --- Recovery semantics ------------------------------------------------------

TEST(JournalRecoveryScan, DuplicateCompletedRecordsStayTerminal) {
  const std::string dir = unique_dir("journal_dup_completed");
  std::string bytes;
  bytes += encode_journal_record(
      accepted_record(kKeyA, "a", "id=a\napp=bfs\nnodes=8\n"));
  bytes += encode_journal_record(
      accepted_record(kKeyB, "b", "id=b\napp=bfs\nnodes=9\n"));
  bytes += encode_journal_record(
      lifecycle(JournalRecordType::kCompleted, kKeyA, "a"));
  bytes += encode_journal_record(
      lifecycle(JournalRecordType::kCompleted, kKeyA, "a"));  // duplicate
  write_segment(dir, "wal-00000001.log", bytes);

  JournalRecovery recovery = recover_journal(dir);
  EXPECT_EQ(recovery.completed_jobs, 1u);  // absorbed once, not twice
  ASSERT_EQ(recovery.incomplete.size(), 1u);
  EXPECT_EQ(recovery.incomplete[0].key, kKeyB);  // never dropped
  EXPECT_TRUE(recovery.is_terminal(kKeyA));      // never re-run
}

TEST(JournalRecoveryScan, TerminalRecordsAbsorbRegardlessOfOrder) {
  // Compaction can legitimately place an accepted record in a
  // higher-numbered segment than its completed record; replay must not
  // resurrect the job.
  const std::string dir = unique_dir("journal_order_insensitive");
  write_segment(dir, "wal-00000001.log",
                encode_journal_record(
                    lifecycle(JournalRecordType::kCompleted, kKeyA, "a")));
  write_segment(dir, "wal-00000002.log",
                encode_journal_record(accepted_record(
                    kKeyA, "a", "id=a\napp=bfs\nnodes=8\n")));
  JournalRecovery recovery = recover_journal(dir);
  EXPECT_TRUE(recovery.incomplete.empty());
  EXPECT_TRUE(recovery.is_terminal(kKeyA));
}

TEST(JournalRecoveryScan, OrphanRecordsEmitStructuredDiagnostics) {
  const std::string dir = unique_dir("journal_orphans");
  std::string bytes;
  bytes += encode_journal_record(
      lifecycle(JournalRecordType::kStarted, kKeyA, "ghost"));
  bytes += encode_journal_record(
      lifecycle(JournalRecordType::kCompleted, kKeyB, "phantom"));
  write_segment(dir, "wal-00000001.log", bytes);

  JournalRecovery recovery = recover_journal(dir);
  EXPECT_TRUE(recovery.incomplete.empty());
  ASSERT_EQ(recovery.diagnostics.size(), 2u);
  for (const auto& diag : recovery.diagnostics) {
    EXPECT_EQ(diag.subsystem, "journal");
    EXPECT_EQ(diag.kind, "orphan_record");
    EXPECT_FALSE(diag.to_string().empty());
  }
}

TEST(JournalRecoveryScan, CorruptionNeverDropsAnAcceptedJobOrRerunsACompletedOne) {
  // Corrupt the completed record for A: its accepted record survives, so A
  // is re-run (conservative, byte-identical by determinism) — but never
  // dropped. Then corrupt the accepted record for B while its completed
  // record survives: B must stay terminal, never re-run.
  const std::string a1 = encode_journal_record(
      accepted_record(kKeyA, "a", "id=a\napp=bfs\nnodes=8\n"));
  const std::string a2 = encode_journal_record(
      lifecycle(JournalRecordType::kCompleted, kKeyA, "a"));
  const std::string b1 = encode_journal_record(
      accepted_record(kKeyB, "b", "id=b\napp=bfs\nnodes=9\n"));
  const std::string b2 = encode_journal_record(
      lifecycle(JournalRecordType::kCompleted, kKeyB, "b"));

  {
    const std::string dir = unique_dir("journal_corrupt_completed");
    std::string bytes = a1 + a2 + b1 + b2;
    bytes[a1.size() + a2.size() / 2] ^= 0x40;  // hit A's completed record
    write_segment(dir, "wal-00000001.log", bytes);
    JournalRecovery recovery = recover_journal(dir);
    ASSERT_EQ(recovery.incomplete.size(), 1u);
    EXPECT_EQ(recovery.incomplete[0].key, kKeyA);  // re-run, not dropped
    EXPECT_TRUE(recovery.is_terminal(kKeyB));
  }
  {
    const std::string dir = unique_dir("journal_corrupt_accepted");
    std::string bytes = a1 + a2 + b1 + b2;
    bytes[a1.size() + a2.size() + b1.size() / 2] ^= 0x40;  // hit B's accepted
    write_segment(dir, "wal-00000001.log", bytes);
    JournalRecovery recovery = recover_journal(dir);
    EXPECT_TRUE(recovery.incomplete.empty());
    EXPECT_TRUE(recovery.is_terminal(kKeyB));  // completed survived: no re-run
  }
}

TEST(JournalRecoveryScan, IncompleteJobsComeBackInJournalOrder) {
  const std::string dir = unique_dir("journal_replay_order");
  std::string bytes;
  // Interleave acceptances with a completion to prove order is by first
  // acceptance, not key sort (kKeyC > kKeyB > kKeyA lexicographically).
  bytes += encode_journal_record(
      accepted_record(kKeyC, "c", "id=c\napp=bfs\nnodes=8\n"));
  bytes += encode_journal_record(
      accepted_record(kKeyA, "a", "id=a\napp=bfs\nnodes=9\n"));
  bytes += encode_journal_record(
      accepted_record(kKeyB, "b", "id=b\napp=bfs\nnodes=10\n"));
  bytes += encode_journal_record(
      lifecycle(JournalRecordType::kCompleted, kKeyA, "a"));
  write_segment(dir, "wal-00000001.log", bytes);

  JournalRecovery recovery = recover_journal(dir);
  ASSERT_EQ(recovery.incomplete.size(), 2u);
  EXPECT_EQ(recovery.incomplete[0].key, kKeyC);
  EXPECT_EQ(recovery.incomplete[1].key, kKeyB);
}

// --- Startup compaction ------------------------------------------------------

TEST(JournalCompaction, SqueezesTerminalHistoryKeepsIncomplete) {
  const std::string dir = unique_dir("journal_compact");
  write_segment(dir, "wal-00000001.log",
                encode_journal_record(accepted_record(
                    kKeyA, "a", "id=a\napp=bfs\nnodes=8\n")) +
                    encode_journal_record(accepted_record(
                        kKeyB, "b", "id=b\napp=bfs\nnodes=9\n")));
  write_segment(dir, "wal-00000002.log",
                encode_journal_record(
                    lifecycle(JournalRecordType::kCompleted, kKeyA, "a")));

  JournalRecovery before = recover_journal(dir);
  ASSERT_EQ(before.incomplete.size(), 1u);
  EXPECT_EQ(compact_journal(dir, before), 2u);

  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segments;
  }
  EXPECT_EQ(segments, 1u);

  JournalRecovery after = recover_journal(dir);
  ASSERT_EQ(after.incomplete.size(), 1u);
  EXPECT_EQ(after.incomplete[0].key, kKeyB);
  EXPECT_EQ(after.incomplete[0].spec, "id=b\napp=bfs\nnodes=9\n");
}

// --- Writer: rotation, runtime compaction, degrade ---------------------------

TEST(JournalWriter, RotatesAndCompactsUnderLoad) {
  const std::string dir = unique_dir("journal_writer");
  JournalConfig config;
  config.dir = dir;
  config.rotate_bytes = 256;  // tiny: force constant rotation
  config.max_segments = 2;
  Journal journal(config);

  for (int i = 0; i < 40; ++i) {
    const std::string key = std::string(30, 'e') + (i < 10 ? "0" : "") +
                            std::to_string(i);
    journal.append(accepted_record(key, "job", "id=job\napp=bfs\nnodes=8\n"));
    journal.append(lifecycle(JournalRecordType::kCompleted, key, "job"));
  }
  const Journal::Stats stats = journal.stats();
  EXPECT_TRUE(journal.durable());
  EXPECT_EQ(stats.appends, 80u);
  EXPECT_GT(stats.rotations, 0u);
  EXPECT_GT(stats.compactions, 0u);

  // Compaction kept the directory bounded...
  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segments;
  }
  EXPECT_LE(segments, config.max_segments + 2);
  // ...and every job completed, so recovery finds nothing to replay.
  JournalRecovery recovery = recover_journal(dir);
  EXPECT_TRUE(recovery.incomplete.empty());
}

TEST(JournalWriter, RuntimeCompactionPreservesLiveJobs) {
  const std::string dir = unique_dir("journal_writer_live");
  JournalConfig config;
  config.dir = dir;
  config.rotate_bytes = 128;
  config.max_segments = 1;
  Journal journal(config);

  // One job stays open across many rotations and compactions.
  journal.append(accepted_record(kKeyA, "live", "id=live\napp=bfs\nnodes=8\n"));
  for (int i = 0; i < 20; ++i) {
    const std::string key = std::string(30, 'f') + (i < 10 ? "0" : "") +
                            std::to_string(i);
    journal.append(accepted_record(key, "job", "id=job\napp=bfs\nnodes=8\n"));
    journal.append(lifecycle(JournalRecordType::kCompleted, key, "job"));
  }
  EXPECT_GT(journal.stats().compactions, 0u);

  JournalRecovery recovery = recover_journal(dir);
  ASSERT_EQ(recovery.incomplete.size(), 1u);
  EXPECT_EQ(recovery.incomplete[0].key, kKeyA);
  EXPECT_EQ(recovery.incomplete[0].spec, "id=live\napp=bfs\nnodes=8\n");
}

TEST(JournalWriter, IoFailureDegradesToNonDurableNeverThrows) {
  // Point the journal *through* a regular file: create_directories fails.
  const std::string blocker = unique_dir("journal_blocker");
  {
    fs::create_directories(fs::path(blocker).parent_path());
    std::ofstream out(blocker, std::ios::binary);
    out << "not a directory";
  }
  JournalConfig config;
  config.dir = blocker + "/journal";
  Journal journal(config);

  EXPECT_FALSE(journal.durable());
  journal.append(accepted_record(kKeyA, "a", "id=a\napp=bfs\nnodes=8\n"));
  journal.append(lifecycle(JournalRecordType::kCompleted, kKeyA, "a"));
  const Journal::Stats stats = journal.stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.appends, 0u);
  EXPECT_EQ(stats.dropped, 2u);
  EXPECT_GE(stats.io_errors, 1u);
}

// --- Service integration -----------------------------------------------------

std::string probe_spec(const std::string& id, std::size_t nodes,
                       std::uint64_t seed) {
  return "id=" + id + "\napp=bfs\nnodes=" + std::to_string(nodes) +
         "\nseed=" + std::to_string(seed) + "\n";
}

std::string key_for(const std::string& spec_text, std::size_t deadline) {
  JobSpec spec;
  std::string error;
  EXPECT_TRUE(parse_job_spec(spec_text, &spec, &error)) << error;
  return job_cache_key(spec, deadline, cache::code_version_salt());
}

JobReply wait_submit(Service& service, const std::string& spec) {
  JobReply captured;
  std::atomic<int> replies{0};
  service.submit(spec, [&](const JobReply& reply) {
    captured = reply;
    replies.fetch_add(1);
  });
  while (replies.load() == 0) {
  }
  EXPECT_EQ(replies.load(), 1);
  return captured;
}

TEST(JournalService, JournalsTheFullLifecycleBeforeAndAroundTheReply) {
  const std::string journal_dir = unique_dir("journal_service_lifecycle");
  ServiceConfig config;
  config.workers = 2;
  config.journal_dir = journal_dir;

  const std::string spec = probe_spec("life-1", 8, 3);
  const std::string key = key_for(spec, config.default_deadline_rounds);
  {
    Service service(config);
    JobReply reply = wait_submit(service, spec);
    EXPECT_EQ(reply.status, JobReply::Status::kOk);
  }
  // After a clean drain the journal proves accepted -> started -> completed
  // for exactly this key.
  JournalRecovery recovery = recover_journal(journal_dir);
  EXPECT_TRUE(recovery.incomplete.empty());
  EXPECT_EQ(recovery.completed_jobs, 1u);
  EXPECT_TRUE(recovery.is_terminal(key));
  EXPECT_EQ(recovery.corrupt_records, 0u);
  EXPECT_EQ(recovery.torn_tails, 0u);

  std::vector<JournalRecord> records;
  for (const auto& entry : fs::directory_iterator(journal_dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    JournalScanStats stats;
    scan_journal_segment(bytes, &records, &stats);
  }
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, JournalRecordType::kAccepted);
  EXPECT_EQ(records[0].spec, spec);
  EXPECT_EQ(records[1].type, JournalRecordType::kStarted);
  EXPECT_EQ(records[2].type, JournalRecordType::kCompleted);
  for (const JournalRecord& record : records) EXPECT_EQ(record.key, key);
}

TEST(JournalService, ReplaysIncompleteJobsOnConstruction) {
  const std::string journal_dir = unique_dir("journal_service_replay");
  const std::string cache_dir = unique_dir("journal_service_replay_cache");
  ServiceConfig config;
  config.workers = 2;
  config.journal_dir = journal_dir;
  config.cache_dir = cache_dir;

  // A previous daemon accepted this job and crashed before finishing it.
  const std::string spec = probe_spec("rep-1", 9, 5);
  const std::string key = key_for(spec, config.default_deadline_rounds);
  write_segment(journal_dir, "wal-00000001.log",
                encode_journal_record(accepted_record(key, "rep-1", spec)));

  {
    Service service(config);
    while (service.stats().pending != 0) {
    }
    const Service::Stats stats = service.stats();
    EXPECT_EQ(stats.recovered, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.recovery_aborted, 0u);
    ASSERT_EQ(service.recovery().incomplete.size(), 1u);
    EXPECT_EQ(service.recovery().incomplete[0].key, key);
  }

  // The replayed run sealed its report in the cache under the same key a
  // client resubmission would compute — that is the byte-identity bridge.
  cache::Store store(cache_dir);
  std::string body;
  EXPECT_TRUE(store.get(key, &body));
  EXPECT_FALSE(body.empty());

  // And the journal now proves completion: a second restart replays nothing.
  JournalRecovery recovery = recover_journal(journal_dir);
  EXPECT_TRUE(recovery.incomplete.empty());
  EXPECT_TRUE(recovery.is_terminal(key));
}

TEST(JournalService, CompletedJobsAreNotReRunOnRestart) {
  const std::string journal_dir = unique_dir("journal_service_norerun");
  ServiceConfig config;
  config.workers = 2;
  config.journal_dir = journal_dir;

  const std::string spec = probe_spec("done-1", 8, 7);
  const std::string key = key_for(spec, config.default_deadline_rounds);
  write_segment(journal_dir, "wal-00000001.log",
                encode_journal_record(accepted_record(key, "done-1", spec)) +
                    encode_journal_record(lifecycle(
                        JournalRecordType::kCompleted, key, "done-1")));

  Service service(config);
  const Service::Stats stats = service.stats();
  EXPECT_EQ(stats.recovered, 0u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(service.recovery().completed_jobs, 1u);
}

TEST(JournalService, InvalidRecoveredSpecIsAbortedWithDiagnostics) {
  const std::string journal_dir = unique_dir("journal_service_abort");
  ServiceConfig config;
  config.workers = 2;
  config.journal_dir = journal_dir;
  // A spec valid for the daemon that journaled it, invalid under this
  // (smaller) node cap: replay must abort it durably, not crash or loop.
  config.limits.max_nodes = 8;
  const std::string spec = probe_spec("big-1", 64, 2);
  const std::string key = key_for(spec, config.default_deadline_rounds);
  write_segment(journal_dir, "wal-00000001.log",
                encode_journal_record(accepted_record(key, "big-1", spec)));

  {
    Service service(config);
    const Service::Stats stats = service.stats();
    EXPECT_EQ(stats.recovery_aborted, 1u);
    EXPECT_EQ(stats.recovered, 0u);
    EXPECT_EQ(stats.pending, 0u);
  }
  // The abort is terminal: the next restart replays nothing.
  JournalRecovery recovery = recover_journal(journal_dir);
  EXPECT_TRUE(recovery.incomplete.empty());
  EXPECT_EQ(recovery.aborted_jobs, 1u);
  EXPECT_TRUE(recovery.is_terminal(key));
}

TEST(JournalService, IdenticalInflightSubmissionsCoalesce) {
  ServiceConfig config;
  config.workers = 1;  // single worker: the blocker serializes the queue
  Service service(config);

  // Occupy the only worker, then race two identical probes into the queue:
  // the second must attach to the first, not run (or queue) again.
  std::atomic<int> replies{0};
  std::string bodies[3];
  auto reply_into = [&](int slot) {
    return [&, slot](const JobReply& reply) {
      bodies[slot] = reply.body;
      replies.fetch_add(1);
    };
  };
  // The blocker's reply runs on the worker thread, so holding it there until
  // both probes are submitted keeps probe-a queued while probe-b arrives —
  // the blocker job itself finishes far too fast to hold the worker.
  std::promise<void> probes_submitted;
  std::shared_future<void> both_in = probes_submitted.get_future().share();
  service.submit(probe_spec("blocker", 12, 1), [&, both_in](const JobReply& reply) {
    both_in.wait();
    reply_into(0)(reply);
  });
  const std::string probe = probe_spec("probe-a", 8, 2);
  const std::string probe_same_key =
      probe_spec("probe-b", 8, 2);  // different id, same semantics
  service.submit(probe, reply_into(1));
  service.submit(probe_same_key, reply_into(2));
  probes_submitted.set_value();
  while (replies.load() < 3) {
  }

  const Service::Stats stats = service.stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.admitted, 2u);   // blocker + one probe
  EXPECT_EQ(stats.completed, 2u);  // the coalesced copy never ran
  EXPECT_EQ(bodies[1], bodies[2]);
  EXPECT_FALSE(bodies[1].empty());
}

TEST(JournalService, DegradedJournalStillServesJobs) {
  const std::string blocker = unique_dir("journal_service_degraded");
  {
    std::ofstream out(blocker, std::ios::binary);
    out << "not a directory";
  }
  ServiceConfig config;
  config.workers = 2;
  config.journal_dir = blocker + "/journal";
  Service service(config);

  ASSERT_NE(service.journal(), nullptr);
  EXPECT_FALSE(service.journal()->durable());
  JobReply reply = wait_submit(service, probe_spec("deg-1", 8, 3));
  EXPECT_EQ(reply.status, JobReply::Status::kOk);
  EXPECT_FALSE(reply.body.empty());
}

}  // namespace
