#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cache/store.hpp"
#include "src/serve/job.hpp"
#include "src/serve/journal.hpp"
#include "src/util/thread_pool.hpp"

namespace qcongest::serve {

/// Tuning of the multi-tenant job service.
struct ServiceConfig {
  /// Worker threads jobs fan out on (the shared util::ThreadPool).
  std::size_t workers = 4;
  /// Admission bound: jobs admitted but not yet replied to (queued +
  /// running). One slow tenant can fill its share of the queue, but the
  /// queue itself can never grow without bound — beyond this the service
  /// sheds load with a structured rejection instead of buffering or
  /// hanging.
  std::size_t max_pending = 32;
  /// Watchdog round deadline applied to jobs that do not set their own —
  /// the guarantee that a hung protocol becomes a structured report, not a
  /// wedged worker thread.
  std::size_t default_deadline_rounds = 200000;
  /// Per-spec admission limits.
  JobLimits limits;
  /// Base of the retry-after hint in rejections; the hint scales with the
  /// overload depth so clients spread their retries.
  std::uint64_t retry_after_base_ms = 25;
  /// Root of the content-addressed result cache (src/cache). Empty = no
  /// caching. With a cache, admitted jobs take a read-through path: the
  /// reply body for an identical (job, seed) submission — any thread
  /// budget, any id — is served from the store instead of re-running, and
  /// misses seal their report back in. Safe because the body is a pure
  /// function of the job_cache_key inputs; a corrupt entry degrades to a
  /// recomputed miss inside the store.
  std::string cache_dir;
  /// Root of the write-ahead job journal (src/serve/journal). Empty = no
  /// durability. With a journal, every admitted job's spec is persisted
  /// before its reply can exist; on construction the service replays the
  /// directory — completed jobs are left to the result cache, incomplete
  /// accepted jobs are re-enqueued in journal order — so a SIGKILLed
  /// daemon restarts without losing a single accepted job. Pair it with
  /// cache_dir: the cache is what makes replayed completions cheap and
  /// client resubmissions byte-identical.
  std::string journal_dir;
  /// fsync the journal after every record (power-loss durability). The
  /// default off still survives process death via the page cache.
  bool journal_fsync = false;
};

/// One reply per submitted job, exactly once.
struct JobReply {
  enum class Status {
    /// The job ran; body is the report JSON (which itself may describe a
    /// run-level error — deadline, CONGEST violation — in its error labels).
    kOk,
    /// The spec never ran: unparseable or invalid. error says why.
    kInvalid,
    /// Shed at admission; error names the reason and retry_after_ms hints
    /// when to come back.
    kRejected,
  };
  Status status = Status::kOk;
  std::string id;  // spec id; "?" when the spec was too broken to carry one
  std::string body;
  std::string error;
  std::uint64_t retry_after_ms = 0;
  std::size_t queue_depth = 0;  // admitted jobs at reply time (rejections)
};

/// The socket-free heart of qcongestd: parse -> validate -> admit ->
/// execute on the pool -> reply. Fully testable without a network, which
/// is how the admission, deadline, and isolation semantics are unit-tested.
///
/// Robustness contract:
///  - submit never blocks on job execution and never throws on bad input;
///    every spec gets exactly one reply.
///  - a full admission queue yields Status::kRejected with a retry-after
///    hint (load shedding), never an unbounded queue or a hang;
///  - job execution is exception-isolated (run_job_report converts throws
///    into structured error reports);
///  - destruction drains: admitted jobs finish and their callbacks fire
///    before the destructor returns (the pool's drain guarantee).
///
/// Determinism: the reply body for an admitted job is a pure function of
/// (spec semantics, default_deadline_rounds) — independent of load,
/// arrival order, worker count, and the spec's own threads knob.
class Service {
 public:
  using ReplyFn = std::function<void(const JobReply&)>;

  explicit Service(ServiceConfig config);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submit one job spec. `done` fires exactly once: synchronously (in the
  /// calling thread) for rejections and invalid specs, from a pool worker
  /// when an admitted job completes. The callback must be thread-safe
  /// against the caller's own state and must not re-enter submit of a
  /// draining service.
  void submit(std::string spec_text, ReplyFn done);

  struct Stats {
    std::size_t submitted = 0;
    std::size_t admitted = 0;
    std::size_t completed = 0;
    std::size_t rejected_overload = 0;
    std::size_t invalid_specs = 0;
    std::size_t pending = 0;  // admitted, reply not yet delivered
    std::size_t cache_hits = 0;    // replies served from the result cache
    std::size_t cache_misses = 0;  // executed (and sealed) on a miss
    /// Submissions that attached to an identical in-flight job instead of
    /// running again — the server half of idempotent resubmission: a
    /// reconnecting client re-sending a spec whose first copy is still
    /// running gets the same bytes from the same run.
    std::size_t coalesced = 0;
    std::size_t recovered = 0;         // incomplete jobs re-enqueued at startup
    std::size_t recovery_aborted = 0;  // recovered specs that failed re-validation
  };
  Stats stats() const;

  const ServiceConfig& config() const { return config_; }

  /// What the journal replay found at construction (empty recovery when
  /// journal_dir is unset).
  const JournalRecovery& recovery() const { return recovery_; }
  /// The live journal, or nullptr when journal_dir is unset.
  const Journal* journal() const { return journal_.get(); }

 private:
  struct Waiter {
    std::string id;
    ReplyFn done;  // empty for journal-replayed jobs (no client to answer)
  };

  /// Fan one admitted job out to the pool; the accepted record (if any)
  /// must already be journaled. Completion resolves every waiter
  /// registered under `key`.
  void enqueue_job(JobSpec spec, std::string key);
  /// Re-enqueue the recovery's incomplete jobs, in journal order.
  void replay_recovered();

  ServiceConfig config_;
  mutable std::mutex mutex_;
  Stats stats_;
  /// Admitted jobs not yet completed, keyed by cache key, each with the
  /// waiters to answer on completion. Guarded by mutex_.
  std::map<std::string, std::vector<Waiter>> inflight_;
  JournalRecovery recovery_;
  /// Durability layer (null when journal_dir is empty). Like the store it
  /// must be declared before pool_: draining workers still append
  /// completion records.
  std::unique_ptr<Journal> journal_;
  /// The read-through result cache (null when cache_dir is empty). Must be
  /// declared before pool_: draining workers still consult it.
  std::unique_ptr<cache::Store> store_;
  /// Declared last, so it is destroyed first: the pool drains in-flight
  /// jobs while the rest of the service (mutex, stats, config, store) is
  /// still alive for their completion callbacks.
  std::unique_ptr<util::ThreadPool> pool_;
};

/// Render a reply as the wire payload of its frame (kResult / kRejected):
/// `key=value` header lines, then for kOk a blank line and the report JSON.
std::string render_reply_payload(const JobReply& reply);

}  // namespace qcongest::serve
