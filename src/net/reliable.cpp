#include "src/net/reliable.hpp"

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/util/rng.hpp"

namespace qcongest::net {

namespace {

// Link-layer chunk tags live in the negative tag space so they can never
// collide with protocol-level tags (which are small positive constants).
constexpr std::int32_t kRelData0 = -101;  // a = seq<<32 | inner tag, b = word.a
constexpr std::int32_t kRelData1 = -102;  // a = seq<<32 | cksum<<2 | q<<1, b = word.b
constexpr std::int32_t kRelFence = -103;  // a = seq<<32 | cksum<<2 | final<<1, b = round
constexpr std::int32_t kRelAck = -104;    // a = cksum<<2, b = next expected seq
constexpr std::int32_t kRelPoll = -105;   // a = cksum<<2, b = demanded fence round
// State-transfer items of the amnesia-recovery catch-up protocol. They ride
// the same per-link exactly-once in-order stream as data and fences, and
// their chunks share the CONGEST(B) budget (counted as recovery_words).
constexpr std::int32_t kRelRecReq = -106;  // a = seq<<32 | cksum<<2, b = from<<32 | to
constexpr std::int32_t kRelRecHdr = -107;  // a = seq<<32 | cksum<<2, b = round<<32 | count
constexpr std::int32_t kRelRecW0 = -108;   // replayed data, chunk 0 (like kRelData0)
constexpr std::int32_t kRelRecW1 = -109;   // replayed data, chunk 1 (like kRelData1)

constexpr std::uint64_t kChecksumMask = 0x3FFFFFFF;  // 30 bits
constexpr std::uint64_t kChecksumSalt = 0x9e3779b97f4a7c15ULL;

/// Extra virtual rounds of per-link send log kept beyond the checkpoint
/// distance, absorbing the <= 1 round of virtual-round skew between
/// neighbors plus the request/response handshake.
constexpr std::size_t kLogMargin = 4;

/// Header count marking a requested round the responder has already pruned
/// from its send log (the recovering node then cannot catch up and dies).
/// Unreachable under the documented pruning margin; kept for honesty.
constexpr std::uint32_t kRecUnavailable = 0xFFFFFFFFu;

std::uint32_t fold30(std::initializer_list<std::uint64_t> fields) {
  std::uint64_t h = kChecksumSalt;
  for (std::uint64_t f : fields) h = util::mix64(h ^ f);
  return static_cast<std::uint32_t>(h & kChecksumMask);
}

std::uint32_t data_checksum(std::uint32_t seq, const Word& w) {
  return fold30({seq, static_cast<std::uint32_t>(w.tag), static_cast<std::uint64_t>(w.a),
                 static_cast<std::uint64_t>(w.b), w.quantum ? 1u : 0u, 0xDAu});
}

std::uint32_t fence_checksum(std::uint32_t seq, std::size_t round, bool final) {
  return fold30({seq, static_cast<std::uint64_t>(round), final ? 1u : 0u, 0xFEu});
}

std::uint32_t ack_checksum(std::uint32_t next_expected) {
  return fold30({next_expected, 0xACu});
}

std::uint32_t poll_checksum(std::size_t round) {
  return fold30({static_cast<std::uint64_t>(round), 0xB0u});
}

std::uint32_t rec_req_checksum(std::uint32_t seq, std::size_t from, std::size_t to) {
  return fold30({seq, static_cast<std::uint64_t>(from), static_cast<std::uint64_t>(to),
                 0xEAu});
}

std::uint32_t rec_hdr_checksum(std::uint32_t seq, std::size_t round, std::uint32_t count) {
  return fold30({seq, static_cast<std::uint64_t>(round), count, 0xEBu});
}

// Distinct checksum domain from live data frames, so a replayed word can
// never masquerade as a fresh one (and vice versa) even under bit flips.
std::uint32_t rec_data_checksum(std::uint32_t seq, const Word& w) {
  return fold30({seq, static_cast<std::uint32_t>(w.tag), static_cast<std::uint64_t>(w.a),
                 static_cast<std::uint64_t>(w.b), w.quantum ? 1u : 0u, 0xEDu});
}

std::int64_t pack(std::uint32_t hi, std::uint32_t lo) {
  return static_cast<std::int64_t>((static_cast<std::uint64_t>(hi) << 32) | lo);
}

std::uint32_t hi32(std::int64_t v) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(v) >> 32);
}

std::uint32_t lo32(std::int64_t v) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(v) & 0xFFFFFFFFULL);
}

/// One sequence-numbered item of a per-link stream: a logical data word, a
/// round fence (final = the sender's program halted; every later round is
/// implicitly fenced too), or a state-transfer item of the amnesia-recovery
/// catch-up protocol (request / per-round header / replayed word).
enum class ItemKind : std::uint8_t { kData, kFence, kRecReq, kRecHdr, kRecData };

struct Item {
  ItemKind kind = ItemKind::kData;
  Word word;                   // kData / kRecData payload
  std::size_t fence_round = 0; // kFence
  bool fence_final = false;    // kFence
  std::size_t rec_a = 0;  // kRecReq: first requested round; kRecHdr: round
  std::size_t rec_b = 0;  // kRecReq: one-past-last round; kRecHdr: word count

  bool is_recovery() const {
    return kind == ItemKind::kRecReq || kind == ItemKind::kRecHdr ||
           kind == ItemKind::kRecData;
  }
  std::size_t chunk_count() const {
    return kind == ItemKind::kData || kind == ItemKind::kRecData ? 2 : 1;
  }
};

class ReliableProgram;

/// The Context subclass handed to the wrapped program: send/halt/keep_alive
/// route into the link layer; id/neighbors/bandwidth/rng come straight from
/// the engine (set up once via configure), and round() reports the *virtual*
/// round.
class ReliableContext final : public Context {
 public:
  void configure(Engine* engine, NodeId id, util::Rng* rng, ReliableProgram* owner) {
    engine_ = engine;
    id_ = id;
    rng_ = rng;
    owner_ = owner;
  }
  void set_round(std::size_t r) { round_ = r; }

  void send(NodeId to, Word word) override;
  void halt() override;
  void keep_alive() override;

 private:
  ReliableProgram* owner_ = nullptr;
};

class ReliableProgram final : public NodeProgram {
 public:
  ReliableProgram(NodeProgram& inner, Engine& engine, const ReliableParams& params)
      : inner_(&inner), engine_(&engine), params_(params) {}

  void on_round(Context& ctx, std::span<const Message> inbox) override {
    if (!initialized_) initialize(ctx);
    // A node whose recovery failed (unreachable send-log round) goes silent
    // forever — the closest survivable-model analogue of a crash-stop.
    if (recovery_failed_) return;
    const std::size_t now = ctx.round();

    for (const Message& m : inbox) {
      auto it = peer_index_.find(m.from);
      if (it == peer_index_.end()) continue;  // cannot happen: engine checks edges
      handle_chunk(it->second, m.word);
    }
    for (std::size_t ni = 0; ni < adj_.size(); ++ni) drain_ready(ni);
    if (recovering_ && !recovery_failed_) try_finish_recovery();

    bool want_more = false;
    if (!recovering_ && !recovery_failed_) {
      // Execute every inner round we have a reason to execute (exec_target)
      // and whose inputs are complete (can_execute). A degree-0 node has no
      // fences to wait on; cap it at one round per pass so it advances in
      // step with physical time.
      std::size_t executed = 0;
      while (!inner_halted_ &&
             (inner_keep_alive_ ||
              static_cast<std::int64_t>(next_round_) <= exec_target()) &&
             can_execute(next_round_) && (!adj_.empty() || executed == 0)) {
        execute_round(next_round_);
        ++executed;
      }
      if (inner_halted_ && !final_fence_sent_) {
        for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
          enqueue_fence(ni, next_round_ == 0 ? 0 : next_round_ - 1, /*final=*/true);
          fenced_up_to_[ni] = static_cast<std::int64_t>(next_round_);
        }
        final_fence_sent_ = true;
      }
      // Demanded fences: a neighbor polled for rounds we withheld (they were
      // silent). Release what we have executed, up to the demand.
      if (!final_fence_sent_ && next_round_ > 0) {
        for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
          std::int64_t level = std::min(out_[ni].demanded,
                                        static_cast<std::int64_t>(next_round_) - 1);
          if (level > fenced_up_to_[ni]) {
            enqueue_fence(ni, static_cast<std::size_t>(level), /*final=*/false);
            fenced_up_to_[ni] = level;
          }
        }
      }
      // Polls: we want to execute next_round_ but some neighbor has not
      // fenced next_round_ - 1 (it idled and lazily withheld the fence).
      // Demand it, re-demanding on the retransmission timer in case the poll
      // itself is lost.
      want_more = !inner_halted_ &&
                  (inner_keep_alive_ ||
                   static_cast<std::int64_t>(next_round_) <= exec_target());
      if (want_more && next_round_ > 0 && !can_execute(next_round_)) {
        for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
          InLink& in = in_[ni];
          if (in.final_seen) continue;
          if (in.fenced_round >= static_cast<std::int64_t>(next_round_) - 1) continue;
          if (static_cast<std::int64_t>(now) >=
              in.last_poll + static_cast<std::int64_t>(params_.rto_rounds)) {
            in.poll_pending = true;
            in.poll_target = next_round_ - 1;
            in.last_poll = static_cast<std::int64_t>(now);
          }
        }
      }
    }

    transmit(ctx, now);

    if (recovering_ && !recovery_failed_) {
      // Catch-up in progress: stay scheduled and bill the round to recovery.
      engine_->note_recovery_activity();
      ctx.keep_alive();
    } else if (inner_keep_alive_ || want_more || link_work_pending()) {
      ctx.keep_alive();
    }
  }

  // --- Durable-state interface: the wrapper is transparent ---------------
  // The link layer itself holds no durable state worth checkpointing (it is
  // the part of the node that survives amnesia, like a NIC re-establishing
  // its session), so snapshots pass straight through to the inner program.
  // No restore override: the engine restores programs only under the
  // direct transport, and on_amnesia_restart below restores the inner one.

  bool snapshot(std::vector<std::int64_t>& out) const override {
    return inner_->snapshot(out);
  }
  std::uint32_t state_version() const override { return inner_->state_version(); }

  /// Amnesia restart under the reliable transport: the inner program's state
  /// is wiped — reconstructed from the run's program factory by state
  /// transplant (a factory-fresh instance's serialized round-0 state
  /// overwrites the scheduled object, so callers keep reading results from
  /// the original instance) — then rolled forward to the latest checkpoint
  /// and caught up to the pre-crash virtual round by replaying the
  /// neighbors' send logs. Link state (sequence numbers, in-flight frames,
  /// fences, logs) deliberately survives: the outage is invisible at the
  /// item level, retransmission already covers it.
  bool on_amnesia_restart(std::size_t /*restart_round*/) override {
    if (!initialized_) return true;  // never executed: nothing volatile lost
    if (!recovery_logging_) return false;
    const Engine::ProgramFactory& factory = engine_->program_factory();
    if (factory == nullptr) return false;
    std::unique_ptr<NodeProgram> fresh = factory(id_);
    std::vector<std::int64_t> fresh_words;
    if (fresh == nullptr || !fresh->snapshot(fresh_words) ||
        !inner_->restore(fresh->state_version(), fresh_words)) {
      return false;
    }
    std::size_t from = 0;
    if (const recover::Snapshot* snap = engine_->checkpoint_store().latest(id_)) {
      if (snap->intact() && inner_->restore(snap->version, snap->words)) {
        from = snap->round;
      } else if (!inner_->restore(fresh->state_version(), fresh_words)) {
        // Rotted/rejected checkpoint and the fallback re-transplant failed.
        return false;
      }
    }
    engine_->note_recovery_activity();
    replay_from_ = from;
    replay_to_ = next_round_;
    if (replay_to_ <= replay_from_) return true;  // checkpoint is current
    recovering_ = true;
    recovery_failed_ = false;
    // Replaying rounds [from, to) consumes the neighbors' sends of rounds
    // [from - 1, to - 1) — round r's inbox is what they sent in r - 1.
    req_lo_ = replay_from_ == 0 ? 0 : replay_from_ - 1;
    req_hi_ = replay_to_ - 1;
    if (req_hi_ <= req_lo_ || adj_.empty()) {
      do_replay();  // only message-free rounds to redo
      return true;
    }
    for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
      rec_[ni] = RecState{};
      rec_[ni].pending = true;
      Item req;
      req.kind = ItemKind::kRecReq;
      req.rec_a = req_lo_;
      req.rec_b = req_hi_;
      enqueue_item(ni, std::move(req));
    }
    return true;
  }

  // --- called by ReliableContext -----------------------------------------

  void inner_send(NodeId to, Word word) {
    auto it = peer_index_.find(to);
    if (it == peer_index_.end()) {
      throw std::invalid_argument("Engine: send to non-neighbor");
    }
    std::size_t ni = it->second;
    if (++sent_this_vround_[ni] > engine_->bandwidth()) {
      throw std::runtime_error(
          "CONGEST bandwidth exceeded: a node sent more than B words over one "
          "edge in one round");
    }
    sent_any_ = true;
    // Replayed rounds re-derive sent_any_/bandwidth identically, but their
    // sends must not hit the wire again: the original items still sit in the
    // link stream (the link layer survived the amnesia crash), and the
    // neighbor has long consumed or will consume them.
    if (replay_mode_) return;
    if (recovery_logging_) {
      out_[ni].sent_log[inner_ctx_.round()].push_back(word);
    }
    Item item;
    item.word = word;
    enqueue_item(ni, std::move(item));
  }

  void inner_halt() { inner_halted_ = true; }
  void inner_keep_alive() { inner_keep_alive_ = true; }

 private:
  struct InFlight {
    Item item;
    std::size_t chunks_sent = 0;
    std::size_t last_sent_round = 0;
    std::size_t rto = 0;
    bool fully_sent = false;
  };

  struct OutLink {
    std::uint32_t next_seq = 0;
    std::uint32_t acked_prefix = 0;
    std::map<std::uint32_t, InFlight> inflight;
    std::deque<std::pair<std::uint32_t, Item>> queue;
    /// Highest round the peer has demanded we fence (via a poll); sticky.
    std::int64_t demanded = -1;
    /// Recovery only: inner words sent over this link, by virtual round —
    /// what a recovering peer replays from. Link state, so it survives the
    /// peer's amnesia (and our own). Pruned at checkpoints.
    std::map<std::size_t, std::vector<Word>> sent_log;
    /// First round still in sent_log (everything below was pruned).
    std::size_t log_floor = 0;
  };

  struct Partial {
    bool have0 = false, have1 = false;
    bool rec = false;  // chunks carried kRelRecW* tags (replayed data)
    std::int64_t a0 = 0, b0 = 0, a1 = 0, b1 = 0;
  };

  /// Receive side of one link's state transfer while recovering.
  struct RecState {
    bool pending = false;  // responses still owed on this link
    std::map<std::size_t, std::size_t> expected;  // round -> announced count
    std::map<std::size_t, std::vector<Word>> words;
    std::size_t open_round = 0;  // round of the last header drained
    std::size_t open_left = 0;   // its words still to arrive
    bool discard = false;        // stale/duplicate header: drop its words
  };

  struct InLink {
    std::uint32_t next_expected = 0;
    std::map<std::uint32_t, Item> ready;
    std::map<std::uint32_t, Partial> partial;
    bool ack_dirty = false;
    std::vector<Word> unfenced_words;
    std::map<std::size_t, std::vector<Word>> words_by_round;
    std::int64_t fenced_round = -1;
    bool final_seen = false;
    // Outgoing poll state: when we block on this peer's withheld fence.
    std::int64_t last_poll = std::numeric_limits<std::int64_t>::min() / 2;
    bool poll_pending = false;
    std::size_t poll_target = 0;
  };

  /// The highest inner round this node has a reason to execute: round 0
  /// always runs; delivered-but-unconsumed data for round m forces rounds
  /// up to m + 1; a neighbor's demand forces rounds up to the demanded
  /// fence; momentum (our own last executed round sent something) grants
  /// one more round, since senders drive their own clock. Rounds beyond
  /// the target are provably silent for well-behaved programs (event-driven
  /// or keep_alive-honest) and are simply not executed — that is what lets
  /// a quiet network quiesce.
  std::int64_t exec_target() const {
    std::int64_t t = next_round_ == 0 ? 0 : -1;
    if (momentum_) t = std::max(t, static_cast<std::int64_t>(next_round_));
    for (const OutLink& out : out_) t = std::max(t, out.demanded);
    for (const InLink& in : in_) {
      if (!in.words_by_round.empty()) {
        t = std::max(t,
                     static_cast<std::int64_t>(in.words_by_round.rbegin()->first) + 1);
      }
    }
    return t;
  }

  void initialize(Context& ctx) {
    id_ = ctx.id();
    adj_ = ctx.neighbors();
    for (std::size_t ni = 0; ni < adj_.size(); ++ni) peer_index_[adj_[ni]] = ni;
    out_.resize(adj_.size());
    in_.resize(adj_.size());
    rec_.resize(adj_.size());
    sent_this_vround_.assign(adj_.size(), 0);
    fenced_up_to_.assign(adj_.size(), -1);
    recovery_logging_ = engine_->recovery().enabled;
    inner_ctx_.configure(engine_, id_, &ctx.rng(), this);
    initialized_ = true;
  }

  bool can_execute(std::size_t r) const {
    if (r == 0) return true;
    for (const InLink& in : in_) {
      if (!in.final_seen && in.fenced_round < static_cast<std::int64_t>(r) - 1) {
        return false;
      }
    }
    return true;
  }

  void execute_round(std::size_t r) {
    std::vector<Message> inbox;
    if (r > 0) {
      for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
        auto it = in_[ni].words_by_round.find(r - 1);
        if (it == in_[ni].words_by_round.end()) continue;
        for (const Word& w : it->second) inbox.push_back(Message{adj_[ni], w});
        in_[ni].words_by_round.erase(it);
      }
    }
    run_inner(r, inbox);
  }

  /// One inner round, live or replayed: the only difference is where the
  /// inbox came from (words_by_round vs the neighbors' replayed logs) and
  /// that replayed sends stay off the wire (see inner_send). State updates
  /// (next_round_, momentum_, fences, checkpoints) are identical, which is
  /// what makes a completed replay land exactly on the pre-crash trajectory.
  void run_inner(std::size_t r, std::span<const Message> inbox) {
    inner_ctx_.set_round(r);
    inner_keep_alive_ = false;
    sent_any_ = false;
    std::fill(sent_this_vround_.begin(), sent_this_vround_.end(), 0);
    inner_->on_round(inner_ctx_, inbox);
    next_round_ = r + 1;
    momentum_ = sent_any_;
    // Active rounds are fenced immediately; silent rounds withhold the
    // fence until a neighbor demands it (poll), so a globally quiet network
    // goes silent and the engine can quiesce.
    if (!inbox.empty() || sent_any_ || inner_keep_alive_ || inner_halted_) {
      fence_all(r);
    }
    maybe_checkpoint(r + 1);
  }

  /// Periodic checkpoint at a virtual-round boundary, plus send-log pruning.
  void maybe_checkpoint(std::size_t rounds_done) {
    if (!recovery_logging_) return;
    const recover::RecoveryPolicy& policy = engine_->recovery();
    if (!policy.checkpoint.due(rounds_done)) return;
    std::vector<std::int64_t> words;
    if (inner_->snapshot(words)) {
      recover::Snapshot snap;
      snap.version = inner_->state_version();
      snap.round = rounds_done;
      snap.words = std::move(words);
      engine_->checkpoint_store().put(id_, std::move(snap));
    }
    // A neighbor's catch-up request reaches back to its own checkpoint minus
    // one; neighbors trail our virtual round by at most 1 (they cannot
    // execute r + 1 before we fence r) and checkpoint every k rounds too, so
    // send-rounds below rounds_done - k - margin - 1 are unreachable.
    std::size_t k = policy.checkpoint.every_rounds;
    std::size_t reach = k + kLogMargin + 1;
    if (rounds_done <= reach) return;
    std::size_t keep_from = rounds_done - reach;
    for (OutLink& out : out_) {
      out.sent_log.erase(out.sent_log.begin(), out.sent_log.lower_bound(keep_from));
      out.log_floor = std::max(out.log_floor, keep_from);
    }
  }

  void fence_all(std::size_t r) {
    if (final_fence_sent_ || replay_mode_) return;
    for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
      if (fenced_up_to_[ni] < static_cast<std::int64_t>(r)) {
        enqueue_fence(ni, r, /*final=*/false);
        fenced_up_to_[ni] = static_cast<std::int64_t>(r);
      }
    }
  }

  void enqueue_fence(std::size_t ni, std::size_t round, bool final) {
    Item item;
    item.kind = ItemKind::kFence;
    item.fence_round = round;
    item.fence_final = final;
    enqueue_item(ni, std::move(item));
  }

  void enqueue_item(std::size_t ni, Item item) {
    OutLink& out = out_[ni];
    out.queue.emplace_back(out.next_seq++, std::move(item));
  }

  /// Returns true when the chunk carried valid information (data, fence, or
  /// ack — including duplicates, which trigger a re-ack and may wake us).
  bool handle_chunk(std::size_t ni, const Word& w) {
    InLink& in = in_[ni];
    OutLink& out = out_[ni];
    switch (w.tag) {
      case kRelAck: {
        auto next = static_cast<std::uint32_t>(static_cast<std::uint64_t>(w.b));
        if (hi32(w.a) != 0 || lo32(w.a) >> 2 != ack_checksum(next)) {
          return false;  // corrupted ack
        }
        if (next > out.next_seq) return false;
        if (next > out.acked_prefix) {
          out.acked_prefix = next;
          out.inflight.erase(out.inflight.begin(), out.inflight.lower_bound(next));
        }
        return true;
      }
      case kRelData0:
      case kRelData1:
      case kRelRecW0:
      case kRelRecW1: {
        const bool rec = w.tag == kRelRecW0 || w.tag == kRelRecW1;
        const bool chunk0 = w.tag == kRelData0 || w.tag == kRelRecW0;
        std::uint32_t seq = hi32(w.a);
        if (!plausible_seq(in, seq)) return seq < in.next_expected || in.ready.count(seq)
                                                ? (in.ack_dirty = true)
                                                : false;
        Partial& p = in.partial[seq];
        p.rec = p.rec || rec;
        if (chunk0) {
          p.have0 = true;
          p.a0 = w.a;
          p.b0 = w.b;
        } else {
          p.have1 = true;
          p.a1 = w.a;
          p.b1 = w.b;
        }
        if (!(p.have0 && p.have1)) return true;
        Word word;
        word.tag = static_cast<std::int32_t>(lo32(p.a0));
        word.a = p.b0;
        word.b = p.b1;
        word.quantum = ((lo32(p.a1) >> 1) & 1) != 0;
        std::uint32_t cksum = lo32(p.a1) >> 2;
        const bool was_rec = p.rec;
        in.partial.erase(seq);
        std::uint32_t expect =
            was_rec ? rec_data_checksum(seq, word) : data_checksum(seq, word);
        if (cksum != expect) {
          return false;  // corrupted frame: discard, retransmission recovers it
        }
        Item item;
        item.kind = was_rec ? ItemKind::kRecData : ItemKind::kData;
        item.word = word;
        in.ready.emplace(seq, std::move(item));
        in.ack_dirty = true;
        return true;
      }
      case kRelFence: {
        std::uint32_t seq = hi32(w.a);
        if (!plausible_seq(in, seq)) return seq < in.next_expected || in.ready.count(seq)
                                                ? (in.ack_dirty = true)
                                                : false;
        bool final = ((lo32(w.a) >> 1) & 1) != 0;
        auto round = static_cast<std::size_t>(w.b);
        if (lo32(w.a) >> 2 != fence_checksum(seq, round, final)) {
          return false;
        }
        Item item;
        item.kind = ItemKind::kFence;
        item.fence_round = round;
        item.fence_final = final;
        in.ready.emplace(seq, std::move(item));
        in.ack_dirty = true;
        return true;
      }
      case kRelRecReq: {
        std::uint32_t seq = hi32(w.a);
        if (!plausible_seq(in, seq)) return seq < in.next_expected || in.ready.count(seq)
                                                ? (in.ack_dirty = true)
                                                : false;
        std::size_t from = hi32(w.b);
        std::size_t to = lo32(w.b);
        if (lo32(w.a) >> 2 != rec_req_checksum(seq, from, to)) {
          return false;  // corrupted; the peer's retransmission recovers it
        }
        Item item;
        item.kind = ItemKind::kRecReq;
        item.rec_a = from;
        item.rec_b = to;
        in.ready.emplace(seq, std::move(item));
        in.ack_dirty = true;
        return true;
      }
      case kRelRecHdr: {
        std::uint32_t seq = hi32(w.a);
        if (!plausible_seq(in, seq)) return seq < in.next_expected || in.ready.count(seq)
                                                ? (in.ack_dirty = true)
                                                : false;
        std::size_t round = hi32(w.b);
        std::uint32_t count = lo32(w.b);
        if (lo32(w.a) >> 2 != rec_hdr_checksum(seq, round, count)) {
          return false;
        }
        Item item;
        item.kind = ItemKind::kRecHdr;
        item.rec_a = round;
        item.rec_b = count;
        in.ready.emplace(seq, std::move(item));
        in.ack_dirty = true;
        return true;
      }
      case kRelPoll: {
        auto round = static_cast<std::size_t>(w.b);
        if (hi32(w.a) != 0 ||
            lo32(w.a) >> 2 != poll_checksum(round)) {
          return false;  // corrupted poll; the peer re-polls on its timer
        }
        out.demanded = std::max(out.demanded, static_cast<std::int64_t>(round));
        return true;
      }
      default:
        return false;  // not a link-layer chunk; ignore
    }
  }

  /// A fresh, in-window sequence number. Duplicates and garbage (corrupted
  /// sequence bits far outside the window) are handled by the caller.
  bool plausible_seq(const InLink& in, std::uint32_t seq) const {
    if (seq < in.next_expected) return false;                        // duplicate
    if (seq >= in.next_expected + 4 * params_.window) return false;  // garbage
    return in.ready.find(seq) == in.ready.end();                     // duplicate
  }

  void drain_ready(std::size_t ni) {
    InLink& in = in_[ni];
    while (!in.ready.empty() && in.ready.begin()->first == in.next_expected) {
      Item item = std::move(in.ready.begin()->second);
      in.ready.erase(in.ready.begin());
      ++in.next_expected;
      in.ack_dirty = true;
      switch (item.kind) {
        case ItemKind::kFence:
          // Stream order guarantees all data belonging to rounds <=
          // fence_round precedes the fence; buffered words belong to exactly
          // fence_round.
          if (!in.unfenced_words.empty()) {
            auto& bucket = in.words_by_round[item.fence_round];
            bucket.insert(bucket.end(), in.unfenced_words.begin(),
                          in.unfenced_words.end());
            in.unfenced_words.clear();
          }
          in.fenced_round =
              std::max(in.fenced_round, static_cast<std::int64_t>(item.fence_round));
          if (item.fence_final) in.final_seen = true;
          break;
        case ItemKind::kData:
          if (inner_halted_) {
            throw std::logic_error("Engine: message delivered to a halted node");
          }
          in.unfenced_words.push_back(item.word);
          break;
        case ItemKind::kRecReq:
          respond_state_transfer(ni, item.rec_a, item.rec_b);
          break;
        case ItemKind::kRecHdr:
          on_rec_header(ni, item.rec_a, item.rec_b);
          break;
        case ItemKind::kRecData:
          on_rec_word(ni, item.word);
          break;
      }
    }
  }

  // --- Neighbor-assisted state transfer (amnesia recovery) ---------------

  /// Responder side: a recovering neighbor asked for our sends of rounds
  /// [from, to). Works even while we are recovering ourselves — the send
  /// log is link state, not program state.
  void respond_state_transfer(std::size_t ni, std::size_t from, std::size_t to) {
    OutLink& out = out_[ni];
    for (std::size_t r = from; r < to; ++r) {
      Item hdr;
      hdr.kind = ItemKind::kRecHdr;
      hdr.rec_a = r;
      if (r < out.log_floor) {
        // Pruned beyond reach — unreachable under the documented margin, but
        // answered honestly so the requester dies loudly instead of
        // replaying wrong inboxes.
        hdr.rec_b = kRecUnavailable;
        enqueue_item(ni, std::move(hdr));
        continue;
      }
      auto it = out.sent_log.find(r);
      const std::vector<Word>* words =
          it == out.sent_log.end() ? nullptr : &it->second;
      hdr.rec_b = words == nullptr ? 0 : words->size();
      enqueue_item(ni, std::move(hdr));
      if (words == nullptr) continue;
      for (const Word& w : *words) {
        Item data;
        data.kind = ItemKind::kRecData;
        data.word = w;
        enqueue_item(ni, std::move(data));
      }
    }
  }

  void on_rec_header(std::size_t ni, std::size_t round, std::size_t count) {
    RecState& rs = rec_[ni];
    if (count == kRecUnavailable) {
      if (recovering_ && rs.pending) recovery_failed_ = true;
      rs.open_left = 0;
      return;
    }
    if (!recovering_ || !rs.pending || round < req_lo_ || round >= req_hi_ ||
        rs.expected.count(round) != 0) {
      // A response to a superseded request (e.g. a second amnesia crash hit
      // before the first recovery's data fully arrived). Its words are
      // byte-identical to what the current request will deliver for the same
      // round, so consuming them into the void is safe.
      rs.open_round = round;
      rs.open_left = count;
      rs.discard = true;
      return;
    }
    rs.expected[round] = count;
    rs.open_round = round;
    rs.open_left = count;
    rs.discard = false;
  }

  void on_rec_word(std::size_t ni, const Word& w) {
    RecState& rs = rec_[ni];
    if (rs.open_left == 0) return;  // stray word; nothing claims it
    --rs.open_left;
    if (!rs.discard) rs.words[rs.open_round].push_back(w);
  }

  /// Once every link delivered its full [req_lo_, req_hi_) response, replay.
  void try_finish_recovery() {
    for (const RecState& rs : rec_) {
      if (!rs.pending) continue;
      if (rs.expected.size() != req_hi_ - req_lo_) return;
      if (rs.open_left != 0) return;  // the last header's words still inbound
    }
    do_replay();
  }

  /// Re-execute rounds [replay_from_, replay_to_) on the reconstructed inner
  /// program, feeding each round the inbox rebuilt from the neighbors'
  /// replayed send logs (round r consumes sends of round r - 1, exactly like
  /// execute_round does from words_by_round). Recoverable programs draw no
  /// randomness and the link layer delivered the original words verbatim, so
  /// the replay lands exactly on the pre-crash trajectory: next_round_,
  /// momentum_, halting, and fence levels all re-derive their surviving
  /// values, and the normal execute loop resumes seamlessly.
  void do_replay() {
    replay_mode_ = true;
    for (std::size_t r = replay_from_; r < replay_to_; ++r) {
      std::vector<Message> inbox;
      if (r > 0) {
        for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
          auto it = rec_[ni].words.find(r - 1);
          if (it == rec_[ni].words.end()) continue;
          for (const Word& w : it->second) inbox.push_back(Message{adj_[ni], w});
        }
      }
      run_inner(r, inbox);
    }
    replay_mode_ = false;
    recovering_ = false;
    for (RecState& rs : rec_) rs = RecState{};
    engine_->note_recovery_activity();
  }

  void transmit(Context& ctx, std::size_t now) {
    for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
      std::size_t budget = ctx.bandwidth();
      NodeId peer = adj_[ni];
      InLink& in = in_[ni];
      OutLink& out = out_[ni];

      if (budget > 0 && in.ack_dirty) {
        std::uint32_t cksum = ack_checksum(in.next_expected);
        ctx.send(peer, Word{kRelAck, pack(0, cksum << 2),
                            static_cast<std::int64_t>(in.next_expected), false});
        in.ack_dirty = false;
        --budget;
      }
      if (budget > 0 && in.poll_pending) {
        std::uint32_t cksum = poll_checksum(in.poll_target);
        ctx.send(peer, Word{kRelPoll, pack(0, cksum << 2),
                            static_cast<std::int64_t>(in.poll_target), false});
        in.poll_pending = false;
        --budget;
      }
      // Admit queued items into the sliding window (chunks go out as budget
      // allows, resuming across rounds via the chunks_sent cursor).
      while (!out.queue.empty() && out.inflight.size() < params_.window) {
        auto& [seq, item] = out.queue.front();
        InFlight fl;
        fl.item = std::move(item);
        fl.rto = params_.rto_rounds;
        fl.last_sent_round = now;
        out.inflight.emplace(seq, std::move(fl));
        out.queue.pop_front();
      }
      // In-flight frames, oldest first: finish initial transmissions and
      // restart timed-out ones with capped exponential backoff. The doubled
      // timeout is then jittered downward by a hash of (link, seq, attempt):
      // on a high-loss link every frame times out on the same schedule, and
      // without the jitter whole neighborhoods re-fire in the same round —
      // a synchronized retransmit storm that keeps colliding with itself.
      // Hash-derived jitter keeps the run seed-deterministic (no RNG draw).
      for (auto& [seq, fl] : out.inflight) {
        if (budget == 0) break;
        if (fl.fully_sent && now >= fl.last_sent_round + fl.rto) {
          fl.fully_sent = false;
          fl.chunks_sent = 0;
          std::size_t backoff = std::min(fl.rto * 2, params_.rto_cap);
          std::size_t spread = backoff / 4;
          if (spread > 1) {
            std::uint64_t h = util::mix64(
                util::mix64(kChecksumSalt ^
                            (static_cast<std::uint64_t>(id_) << 40) ^
                            (static_cast<std::uint64_t>(peer) << 20) ^ seq) ^
                fl.rto);
            backoff -= static_cast<std::size_t>(h % spread);
          }
          fl.rto = backoff;
          engine_->note_retransmission();
        }
        while (budget > 0 && !fl.fully_sent) {
          ctx.send(peer, make_chunk(seq, fl.item, fl.chunks_sent));
          if (fl.item.is_recovery()) engine_->note_recovery_words(1);
          ++fl.chunks_sent;
          --budget;
          if (fl.chunks_sent == fl.item.chunk_count()) {
            fl.fully_sent = true;
            fl.last_sent_round = now;
          }
        }
      }
    }
  }

  Word make_chunk(std::uint32_t seq, const Item& item, std::size_t chunk) const {
    switch (item.kind) {
      case ItemKind::kFence: {
        std::uint32_t cksum = fence_checksum(seq, item.fence_round, item.fence_final);
        std::uint32_t lo = (cksum << 2) | (item.fence_final ? 2u : 0u);
        return Word{kRelFence, pack(seq, lo),
                    static_cast<std::int64_t>(item.fence_round), false};
      }
      case ItemKind::kRecReq: {
        std::uint32_t cksum = rec_req_checksum(seq, item.rec_a, item.rec_b);
        return Word{kRelRecReq, pack(seq, cksum << 2),
                    pack(static_cast<std::uint32_t>(item.rec_a),
                         static_cast<std::uint32_t>(item.rec_b)),
                    false};
      }
      case ItemKind::kRecHdr: {
        auto count = static_cast<std::uint32_t>(item.rec_b);
        std::uint32_t cksum = rec_hdr_checksum(seq, item.rec_a, count);
        return Word{kRelRecHdr, pack(seq, cksum << 2),
                    pack(static_cast<std::uint32_t>(item.rec_a), count), false};
      }
      case ItemKind::kData:
      case ItemKind::kRecData:
        break;
    }
    const bool rec = item.kind == ItemKind::kRecData;
    const Word& w = item.word;
    if (chunk == 0) {
      return Word{rec ? kRelRecW0 : kRelData0,
                  pack(seq, static_cast<std::uint32_t>(w.tag)), w.a, w.quantum};
    }
    std::uint32_t cksum = rec ? rec_data_checksum(seq, w) : data_checksum(seq, w);
    std::uint32_t lo = (cksum << 2) | (w.quantum ? 2u : 0u);
    return Word{rec ? kRelRecW1 : kRelData1, pack(seq, lo), w.b, w.quantum};
  }

  bool link_work_pending() const {
    for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
      if (!out_[ni].queue.empty() || !out_[ni].inflight.empty()) return true;
      if (in_[ni].ack_dirty || in_[ni].poll_pending) return true;
    }
    return false;
  }

  NodeProgram* inner_;
  Engine* engine_;
  ReliableParams params_;
  bool initialized_ = false;
  NodeId id_ = 0;
  std::vector<NodeId> adj_;
  std::unordered_map<NodeId, std::size_t> peer_index_;
  std::vector<OutLink> out_;
  std::vector<InLink> in_;

  ReliableContext inner_ctx_;
  std::size_t next_round_ = 0;  // next inner round to execute
  bool inner_halted_ = false;
  bool inner_keep_alive_ = false;
  bool sent_any_ = false;
  bool momentum_ = false;  // last executed round sent something
  bool final_fence_sent_ = false;
  std::vector<std::size_t> sent_this_vround_;
  std::vector<std::int64_t> fenced_up_to_;

  // Amnesia-recovery state.
  bool recovery_logging_ = false;  // engine recovery enabled (cached)
  bool recovering_ = false;        // awaiting state transfer, inner paused
  bool recovery_failed_ = false;   // unreachable logs: node goes silent
  bool replay_mode_ = false;       // inside do_replay: sends stay off-wire
  std::size_t replay_from_ = 0;    // first round to re-execute
  std::size_t replay_to_ = 0;      // one past the last (pre-crash next_round_)
  std::size_t req_lo_ = 0;         // requested send-round range [lo, hi)
  std::size_t req_hi_ = 0;
  std::vector<RecState> rec_;      // per-link receive state
};

void ReliableContext::send(NodeId to, Word word) { owner_->inner_send(to, word); }
void ReliableContext::halt() { owner_->inner_halt(); }
void ReliableContext::keep_alive() { owner_->inner_keep_alive(); }

}  // namespace

std::vector<std::unique_ptr<NodeProgram>> wrap_reliable(
    std::span<const std::unique_ptr<NodeProgram>> programs, Engine& engine,
    const ReliableParams& params) {
  std::vector<std::unique_ptr<NodeProgram>> wrapped;
  wrapped.reserve(programs.size());
  for (const auto& program : programs) {
    wrapped.push_back(std::make_unique<ReliableProgram>(*program, engine, params));
  }
  return wrapped;
}

}  // namespace qcongest::net
