#include "src/serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/cache/key.hpp"

namespace qcongest::serve {

namespace {

JournalRecord lifecycle_record(JournalRecordType type, const std::string& key,
                               const std::string& id) {
  JournalRecord record;
  record.type = type;
  record.key = key;
  record.id = id;
  return record;
}

}  // namespace

Service::Service(ServiceConfig config)
    : config_(config),
      store_(config.cache_dir.empty()
                 ? nullptr
                 : std::make_unique<cache::Store>(config.cache_dir)),
      // ThreadPool(n) spawns n - 1 workers (the constructing thread only
      // participates in parallel_for, which the service never calls), so
      // +1 makes `workers` mean what it says: that many threads actually
      // executing submitted jobs.
      pool_(std::make_unique<util::ThreadPool>(
          std::max<std::size_t>(config.workers, 1) + 1)) {
  if (config_.journal_dir.empty()) return;

  // Durability boot sequence: digest whatever the previous incarnation
  // left behind, squeeze the directory down to the still-live records,
  // only then open the writer — and finally re-enqueue the survivors.
  recovery_ = recover_journal(config_.journal_dir);
  for (const recover::Diagnosis& diag : recovery_.diagnostics) {
    std::fprintf(stderr, "qcongestd %s\n", diag.to_string().c_str());
  }
  compact_journal(config_.journal_dir, recovery_);
  JournalConfig journal_config;
  journal_config.dir = config_.journal_dir;
  journal_config.fsync_each_record = config_.journal_fsync;
  journal_ = std::make_unique<Journal>(std::move(journal_config));
  journal_->seed_live(recovery_.incomplete);
  replay_recovered();
}

Service::~Service() = default;

void Service::replay_recovered() {
  for (const RecoveredJob& job : recovery_.incomplete) {
    JobSpec spec;
    std::string error;
    if (!parse_job_spec(job.spec, &spec, &error) ||
        !validate_job_spec(spec, config_.limits, &error)) {
      // The journal proves acceptance, but acceptance happened under a
      // previous configuration (or the record limps). Abort it durably so
      // the next restart does not replay it again, and say why.
      JournalRecord aborted =
          lifecycle_record(JournalRecordType::kAborted, job.key, job.id);
      aborted.reason = "replayed spec rejected: " + error;
      journal_->append(aborted);
      recover::Diagnosis diag{"journal", "invalid_spec", job.key,
                              "recovered spec rejected on replay (id=" +
                                  job.id + "): " + error};
      std::fprintf(stderr, "qcongestd %s\n", diag.to_string().c_str());
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.recovery_aborted;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.recovered;
      ++stats_.pending;
      // Register the in-flight entry (with no waiter) so a client that
      // resubmits the same job after the restart coalesces onto the
      // replayed run instead of racing a duplicate.
      inflight_[job.key];
    }
    enqueue_job(std::move(spec), job.key);
  }
}

void Service::submit(std::string spec_text, ReplyFn done) {
  JobSpec spec;
  std::string error;
  if (!parse_job_spec(spec_text, &spec, &error)) {
    JobReply reply;
    reply.status = JobReply::Status::kInvalid;
    reply.id = spec.id.empty() ? "?" : spec.id;
    reply.error = "bad job spec: " + error;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.submitted;
      ++stats_.invalid_specs;
    }
    done(reply);
    return;
  }
  if (!validate_job_spec(spec, config_.limits, &error)) {
    JobReply reply;
    reply.status = JobReply::Status::kInvalid;
    reply.id = spec.id;
    reply.error = "rejected job spec: " + error;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.submitted;
      ++stats_.invalid_specs;
    }
    done(reply);
    return;
  }

  // The job's identity from here on: replies, coalescing, journal records
  // and the result cache all share it, which is what makes resubmission
  // after a lost connection idempotent end to end.
  const std::string key = job_cache_key(spec, config_.default_deadline_rounds,
                                        cache::code_version_salt());

  // Admission control. The pending count is the only shared state the
  // decision needs; everything a job touches while running is job-local.
  bool shed = false;
  bool coalesced = false;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.submitted;
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      // Identical job already admitted and running (or queued): attach to
      // it. No new pending slot, no new journal acceptance — the original
      // run owns the lifecycle and will answer every waiter.
      it->second.push_back(Waiter{spec.id, std::move(done)});
      ++stats_.coalesced;
      coalesced = true;
    } else if (stats_.pending >= config_.max_pending) {
      ++stats_.rejected_overload;
      shed = true;
      depth = stats_.pending;
    } else {
      ++stats_.admitted;
      ++stats_.pending;
      inflight_[key].push_back(Waiter{spec.id, std::move(done)});
    }
  }
  if (coalesced) return;
  if (shed) {
    JobReply reply;
    reply.status = JobReply::Status::kRejected;
    reply.id = spec.id;
    reply.error = "overloaded";
    reply.queue_depth = depth;
    // Hint scales with how deep past capacity we are, so a burst of
    // rejected clients spreads out instead of re-arriving together (their
    // own jittered backoff desynchronizes them further).
    const std::size_t workers = std::max<std::size_t>(config_.workers, 1);
    reply.retry_after_ms =
        config_.retry_after_base_ms * std::max<std::size_t>(1, depth / workers);
    done(reply);
    return;
  }

  // Admitted. The acceptance hits the journal before the job can produce
  // any reply: after this line a crash at any point leaves a record that
  // the restart turns back into this exact job.
  if (journal_ != nullptr) {
    JournalRecord accepted =
        lifecycle_record(JournalRecordType::kAccepted, key, spec.id);
    accepted.spec = spec_text;
    journal_->append(accepted);
  }
  enqueue_job(std::move(spec), key);
}

void Service::enqueue_job(JobSpec spec, std::string key) {
  // Fan out. The worker task owns the spec; it must never throw
  // (run_job_report converts run failures into error reports), but the
  // pool would swallow and count a throw from a waiter callback itself
  // rather than let it kill the process.
  const std::size_t default_deadline = config_.default_deadline_rounds;
  pool_->submit([this, spec = std::move(spec), key = std::move(key),
                 default_deadline]() {
    // Read-through: identical (job, seed) submissions — regardless of id,
    // thread budget, or arrival order — are served from the sealed store;
    // a miss (absent, corrupt, or truncated entry) runs the job and seals
    // the report back. Byte-identity holds on either path because the body
    // is a pure function of the key inputs.
    std::string body;
    bool cached = false;
    if (store_ != nullptr) cached = store_->get(key, &body);
    if (!cached) {
      if (journal_ != nullptr) {
        journal_->append(
            lifecycle_record(JournalRecordType::kStarted, key, spec.id));
      }
      body = run_job_report(spec, default_deadline);
      if (store_ != nullptr) {
        std::string put_error;
        (void)store_->put(key, body, &put_error);  // best effort
      }
    }
    // Completion is journaled before any waiter hears about it: a reply a
    // client managed to read is a reply no restart will ever recompute.
    if (journal_ != nullptr) {
      journal_->append(
          lifecycle_record(JournalRecordType::kCompleted, key, spec.id));
    }
    std::vector<Waiter> waiters;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.completed;
      --stats_.pending;
      if (store_ != nullptr) {
        if (cached) {
          ++stats_.cache_hits;
        } else {
          ++stats_.cache_misses;
        }
      }
      auto it = inflight_.find(key);
      if (it != inflight_.end()) {
        waiters = std::move(it->second);
        inflight_.erase(it);
      }
    }
    for (Waiter& waiter : waiters) {
      if (!waiter.done) continue;  // journal replay has no client to answer
      JobReply reply;
      reply.status = JobReply::Status::kOk;
      reply.id = waiter.id;
      reply.body = body;
      waiter.done(reply);
    }
  });
}

Service::Stats Service::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string render_reply_payload(const JobReply& reply) {
  std::string out = "id=" + reply.id + "\n";
  switch (reply.status) {
    case JobReply::Status::kOk:
      out += "status=ok\n\n";
      out += reply.body;
      break;
    case JobReply::Status::kInvalid:
      out += "status=invalid\nerror=" + reply.error + "\n";
      break;
    case JobReply::Status::kRejected:
      out += "status=rejected\nreason=" + reply.error + "\nretry_after_ms=" +
             std::to_string(reply.retry_after_ms) + "\nqueue_depth=" +
             std::to_string(reply.queue_depth) + "\n";
      break;
  }
  return out;
}

}  // namespace qcongest::serve
