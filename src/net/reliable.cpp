#include "src/net/reliable.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/util/rng.hpp"

namespace qcongest::net {

namespace {

// Link-layer chunk tags live in the negative tag space so they can never
// collide with protocol-level tags (which are small positive constants).
constexpr std::int32_t kRelData0 = -101;  // a = seq<<32 | inner tag, b = word.a
constexpr std::int32_t kRelData1 = -102;  // a = seq<<32 | cksum<<2 | q<<1, b = word.b
constexpr std::int32_t kRelFence = -103;  // a = seq<<32 | cksum<<2 | final<<1,
                                          // b = round<<32 | horizon
constexpr std::int32_t kRelAck = -104;    // a = cksum<<2, b = next expected seq
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

std::uint32_t fence_checksum(std::uint32_t seq, std::size_t round, std::size_t horizon,
                             bool final) {
  return fold30({seq, static_cast<std::uint64_t>(round),
                 static_cast<std::uint64_t>(horizon), final ? 1u : 0u, 0xFEu});
}

std::uint32_t ack_checksum(std::uint32_t next_expected) {
  return fold30({next_expected, 0xACu});
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
/// round fence, or a state-transfer item of the amnesia-recovery catch-up
/// protocol (request / per-round header / replayed word).
enum class ItemKind : std::uint8_t { kData, kFence, kRecReq, kRecHdr, kRecData };

struct Item {
  ItemKind kind = ItemKind::kData;
  /// kFence: the sender's program halted; every later round is implicitly
  /// fenced too.
  bool final = false;
  Word word;          // kData / kRecData payload
  std::size_t a = 0;  // kFence: round; kRecReq: first requested round; kRecHdr: round
  std::size_t b = 0;  // kFence: horizon; kRecReq: one-past-last round; kRecHdr: count

  bool is_recovery() const {
    return kind == ItemKind::kRecReq || kind == ItemKind::kRecHdr ||
           kind == ItemKind::kRecData;
  }
  std::size_t chunk_count() const {
    return kind == ItemKind::kData || kind == ItemKind::kRecData ? 2 : 1;
  }
};

/// Slots for a sliding range of sequence numbers, addressed by seq modulo a
/// power-of-two capacity. The capacity doubles when the live range outgrows
/// it, so a link's memory follows the most it ever held in flight, and the
/// steady state allocates nothing.
template <typename Slot>
class SeqRing {
 public:
  bool empty() const { return slots_.empty(); }
  /// Requires a prior cover() of seq.
  Slot& at(std::uint32_t seq) { return slots_[seq & mask_]; }
  /// Make every sequence number in [base, seq] addressable without
  /// aliasing, keeping the slots of the old live range.
  void cover(std::uint32_t base, std::uint32_t seq) {
    const std::size_t need = static_cast<std::size_t>(seq - base) + 1;
    if (need <= slots_.size()) return;
    std::size_t capacity = std::max<std::size_t>(slots_.size(), 2);
    while (capacity < need) capacity *= 2;
    std::vector<Slot> grown(capacity);
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      const auto s = static_cast<std::uint32_t>(base + k);
      grown[s & (capacity - 1)] = slots_[s & mask_];
    }
    slots_ = std::move(grown);
    mask_ = capacity - 1;
  }

 private:
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
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

  void on_round(Context& ctx, std::span<const Message> inbox) override;

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

  bool on_amnesia_restart(std::size_t restart_round) override;

  // --- called by ReliableContext -----------------------------------------

  void inner_send(NodeId to, Word word);
  void inner_halt() {
    inner_halted_ = true;
    fence_news_ = true;
  }
  void inner_keep_alive() { raise_horizon(inner_ctx_.round() + 1); }

 private:
  struct OutSlot {
    Item item;
    std::size_t last_sent_round = 0;
    std::size_t rto = 0;
    std::size_t chunks_sent = 0;
    bool fully_sent = false;
  };

  /// An inner word this node sent, by virtual round (the recovery send log).
  struct LoggedWord {
    std::size_t round = 0;
    Word word;
  };

  struct OutLink {
    std::uint32_t next_seq = 0;      // one past the newest item
    std::uint32_t acked_prefix = 0;  // the oldest unacknowledged item
    /// Items [acked_prefix, next_seq); the first `window` of them are in
    /// flight, the rest wait for the window to slide.
    SeqRing<OutSlot> items;
    /// The last fence put on this link: (round, horizon, final).
    std::int64_t fenced_round = -1;
    std::size_t fenced_horizon = 0;
    bool fenced_final = false;
    /// Recovery only: inner words sent over this link in round order — what
    /// a recovering peer replays from. Link state, so it survives the
    /// peer's amnesia (and our own). Pruned at checkpoints.
    std::vector<LoggedWord> sent_log;
    /// First round still in sent_log (everything below was pruned).
    std::size_t log_floor = 0;
  };

  /// Receive side of one sequence number: the chunks of a frame collected
  /// so far, then the verified item awaiting in-order delivery.
  struct RecvSlot {
    Item item;
    bool ready = false;
    bool have0 = false, have1 = false;
    bool rec = false;  // chunks carried kRelRecW* tags (replayed data)
    std::int64_t a0 = 0, b0 = 0, a1 = 0, b1 = 0;
  };

  /// A delivered inner word and the round its sender's fence assigned it.
  struct RoundWord {
    std::size_t round = 0;
    Word word;
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
    SeqRing<RecvSlot> slots;  // [next_expected, next_expected + 4 * window)
    /// Cumulative ack state: next_expected as of the last ack sent, the
    /// physical round of the oldest receipt not yet acked, and whether a
    /// duplicate arrived since (the peer is retransmitting).
    std::uint32_t acked = 0;
    std::size_t unacked_since = 0;
    bool duplicate = false;
    /// Delivered words in stream order: [head, unfenced_from) carry their
    /// fenced round, [unfenced_from, end) still await their fence.
    std::vector<RoundWord> words;
    std::size_t head = 0;
    std::size_t unfenced_from = 0;
    std::int64_t fenced_round = -1;
    bool final_seen = false;
  };

  void initialize(Context& ctx);
  void raise_horizon(std::size_t round) {
    if (round <= horizon_) return;
    horizon_ = round;
    fence_news_ = true;
  }
  bool can_execute(std::size_t r) const;
  void execute_round(std::size_t r);
  void run_inner(std::size_t r, std::span<const Message> inbox);
  void maybe_checkpoint(std::size_t rounds_done);
  void announce(std::size_t ni);
  void enqueue_item(std::size_t ni, const Item& item);
  void handle_chunk(std::size_t ni, const Word& w);
  RecvSlot* fresh_slot(InLink& in, std::uint32_t seq);
  void drain_ready(std::size_t ni);
  void respond_state_transfer(std::size_t ni, std::size_t from, std::size_t to);
  void on_rec_header(std::size_t ni, std::size_t round, std::size_t count);
  void on_rec_word(std::size_t ni, const Word& w);
  void try_finish_recovery();
  void do_replay();
  bool transmit(Context& ctx);
  bool ack_owed(const InLink& in) const {
    return in.next_expected != in.acked || in.duplicate;
  }
  bool ack_urgent(const InLink& in) const;
  void send_ack(Context& ctx, std::size_t ni);
  Word make_chunk(std::uint32_t seq, const Item& item, std::size_t chunk) const;

  NodeProgram* inner_;
  Engine* engine_;
  ReliableParams params_;
  bool initialized_ = false;
  NodeId id_ = 0;
  std::vector<NodeId> adj_;
  std::vector<std::size_t> by_id_;  // link indices in ascending neighbor id
  std::vector<OutLink> out_;
  std::vector<InLink> in_;

  ReliableContext inner_ctx_;
  std::size_t now_ = 0;         // the physical round being executed
  std::size_t next_round_ = 0;  // next inner round to execute
  /// The highest virtual round some node is known to need: every round up
  /// to it runs everywhere (see reliable.hpp).
  std::size_t horizon_ = 0;
  bool inner_halted_ = false;
  /// A round ran, the horizon rose or the program halted since the last
  /// pass: some link may need a fence.
  bool fence_news_ = false;
  std::vector<std::size_t> sent_this_vround_;
  std::vector<Message> inbox_;  // the inner inbox being assembled, reused

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

void ReliableProgram::on_round(Context& ctx, std::span<const Message> inbox) {
  if (!initialized_) initialize(ctx);
  // A node whose recovery failed (unreachable send-log round) goes silent
  // forever — the closest survivable-model analogue of a crash-stop.
  if (recovery_failed_) return;
  now_ = ctx.round();

  const Graph& graph = engine_->graph();
  for (const Message& m : inbox) {
    const std::size_t ni = graph.neighbor_index(id_, m.from);
    if (ni == kUnreachable) continue;  // cannot happen: engine checks edges
    handle_chunk(ni, m.word);
    drain_ready(ni);
  }
  if (recovering_ && !recovery_failed_) try_finish_recovery();

  if (!recovering_ && !recovery_failed_) {
    // Run every round up to the horizon whose inputs are complete. A
    // degree-0 node has no fences to wait on; cap it at one round per pass
    // so it advances in step with physical time.
    std::size_t executed = 0;
    while (!inner_halted_ && next_round_ <= horizon_ && can_execute(next_round_) &&
           (!adj_.empty() || executed == 0)) {
      execute_round(next_round_);
      ++executed;
    }
  }

  const bool link_work_pending = transmit(ctx);

  if (recovering_ && !recovery_failed_) {
    // Catch-up in progress: stay scheduled and bill the round to recovery.
    engine_->note_recovery_activity();
    ctx.keep_alive();
  } else if ((!inner_halted_ && next_round_ <= horizon_) || link_work_pending) {
    ctx.keep_alive();
  }
}

/// Amnesia restart under the reliable transport: the inner program's state
/// is wiped — reconstructed from the run's program factory by state
/// transplant (a factory-fresh instance's serialized round-0 state
/// overwrites the scheduled object, so callers keep reading results from
/// the original instance) — then rolled forward to the latest checkpoint
/// and caught up to the pre-crash virtual round by replaying the
/// neighbors' send logs. Link state (sequence numbers, in-flight frames,
/// fences, the horizon, logs) deliberately survives: the outage is
/// invisible at the item level, retransmission already covers it.
bool ReliableProgram::on_amnesia_restart(std::size_t /*restart_round*/) {
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
    req.a = req_lo_;
    req.b = req_hi_;
    enqueue_item(ni, req);
  }
  return true;
}

void ReliableProgram::inner_send(NodeId to, Word word) {
  const std::size_t ni = engine_->graph().neighbor_index(id_, to);
  if (ni == kUnreachable) throw std::invalid_argument("Engine: send to non-neighbor");
  if (++sent_this_vround_[ni] > engine_->bandwidth()) {
    throw std::runtime_error(
        "CONGEST bandwidth exceeded: a node sent more than B words over one "
        "edge in one round");
  }
  const std::size_t round = inner_ctx_.round();
  raise_horizon(round + 1);
  // Replayed rounds re-derive the horizon and bandwidth identically, but
  // their sends must not hit the wire again: the original items still sit
  // in the link stream (the link layer survived the amnesia crash), and the
  // neighbor has long consumed or will consume them.
  if (replay_mode_) return;
  if (recovery_logging_) out_[ni].sent_log.push_back(LoggedWord{round, word});
  Item item;
  item.word = word;
  enqueue_item(ni, item);
}

void ReliableProgram::initialize(Context& ctx) {
  id_ = ctx.id();
  adj_ = ctx.neighbors();
  const std::size_t degree = adj_.size();
  by_id_.resize(degree);
  std::iota(by_id_.begin(), by_id_.end(), std::size_t{0});
  std::sort(by_id_.begin(), by_id_.end(),
            [&](std::size_t x, std::size_t y) { return adj_[x] < adj_[y]; });
  out_.resize(degree);
  in_.resize(degree);
  rec_.resize(degree);
  sent_this_vround_.assign(degree, 0);
  // A virtual round delivers at most B words per link.
  inbox_.reserve(degree * ctx.bandwidth());
  for (InLink& in : in_) in.words.reserve(ctx.bandwidth());
  recovery_logging_ = engine_->recovery().enabled;
  inner_ctx_.configure(engine_, id_, &ctx.rng(), this);
  initialized_ = true;
}

bool ReliableProgram::can_execute(std::size_t r) const {
  if (r == 0) return true;
  for (const InLink& in : in_) {
    if (!in.final_seen && in.fenced_round < static_cast<std::int64_t>(r) - 1) {
      return false;
    }
  }
  return true;
}

/// Round r's inbox is what the neighbors fenced for round r - 1, assembled
/// in ascending sender id — the direct engine's delivery order, so the
/// inner program sees exactly the inboxes it would see without the link
/// layer.
void ReliableProgram::execute_round(std::size_t r) {
  inbox_.clear();
  if (r > 0) {
    for (std::size_t ni : by_id_) {
      InLink& in = in_[ni];
      for (; in.head < in.unfenced_from && in.words[in.head].round < r; ++in.head) {
        if (in.words[in.head].round + 1 == r) {
          inbox_.push_back(Message{adj_[ni], in.words[in.head].word});
        }
      }
      if (in.head != 0 && in.head == in.unfenced_from) {
        // Every fenced word is consumed: keep only the unfenced tail.
        in.words.erase(in.words.begin(),
                       in.words.begin() + static_cast<std::ptrdiff_t>(in.head));
        in.head = in.unfenced_from = 0;
      }
    }
  }
  run_inner(r, inbox_);
}

/// One inner round, live or replayed: the only difference is where the
/// inbox came from (the fenced words vs the neighbors' replayed logs) and
/// that replayed sends and fences stay off the wire. State updates
/// (next_round_, the horizon, checkpoints) are identical, which is what
/// makes a completed replay land exactly on the pre-crash trajectory.
void ReliableProgram::run_inner(std::size_t r, std::span<const Message> inbox) {
  inner_ctx_.set_round(r);
  std::fill(sent_this_vround_.begin(), sent_this_vround_.end(), 0);
  inner_->on_round(inner_ctx_, inbox);
  next_round_ = r + 1;
  fence_news_ = true;
  // A link that carried data this round is fenced right away, so its words
  // stay attributed to round r; the rest get one fence at the end of the
  // pass for the whole burst of rounds.
  if (!replay_mode_) {
    for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
      if (sent_this_vround_[ni] != 0) announce(ni);
    }
  }
  maybe_checkpoint(r + 1);
}

/// Periodic checkpoint at a virtual-round boundary, plus send-log pruning.
void ReliableProgram::maybe_checkpoint(std::size_t rounds_done) {
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
    auto keep = std::partition_point(
        out.sent_log.begin(), out.sent_log.end(),
        [&](const LoggedWord& w) { return w.round < keep_from; });
    out.sent_log.erase(out.sent_log.begin(), keep);
    out.log_floor = std::max(out.log_floor, keep_from);
  }
}

/// Put a fence on link ni when it has news: a newly executed round, a
/// higher horizon, or the halt. Fences are cumulative, so one covers every
/// round executed since the last one; live or halted, a node keeps
/// relaying horizon rises, which is what carries the horizon to every node.
void ReliableProgram::announce(std::size_t ni) {
  if (next_round_ == 0 || replay_mode_) return;
  OutLink& out = out_[ni];
  const auto round = static_cast<std::int64_t>(next_round_ - 1);
  if (round == out.fenced_round && horizon_ == out.fenced_horizon &&
      inner_halted_ == out.fenced_final) {
    return;
  }
  Item fence;
  fence.kind = ItemKind::kFence;
  fence.final = inner_halted_;
  fence.a = next_round_ - 1;
  fence.b = horizon_;
  enqueue_item(ni, fence);
  out.fenced_round = round;
  out.fenced_horizon = horizon_;
  out.fenced_final = inner_halted_;
}

void ReliableProgram::enqueue_item(std::size_t ni, const Item& item) {
  OutLink& out = out_[ni];
  out.items.cover(out.acked_prefix, out.next_seq);
  out.items.at(out.next_seq++) = OutSlot{item, 0, params_.rto_rounds, 0, false};
}

/// The receive slot of a fresh, in-window sequence number, or nullptr for
/// a duplicate (which re-arms the ack: the peer is retransmitting) or for
/// garbage (corrupted sequence bits far outside the window).
ReliableProgram::RecvSlot* ReliableProgram::fresh_slot(InLink& in, std::uint32_t seq) {
  if (seq < in.next_expected) {
    in.duplicate = true;
    return nullptr;
  }
  if (seq >= in.next_expected + 4 * params_.window) return nullptr;
  in.slots.cover(in.next_expected, seq);
  RecvSlot& slot = in.slots.at(seq);
  if (slot.ready) {
    in.duplicate = true;
    return nullptr;
  }
  return &slot;
}

void ReliableProgram::handle_chunk(std::size_t ni, const Word& w) {
  InLink& in = in_[ni];
  OutLink& out = out_[ni];
  switch (w.tag) {
    case kRelAck: {
      auto next = static_cast<std::uint32_t>(static_cast<std::uint64_t>(w.b));
      if (hi32(w.a) != 0 || lo32(w.a) >> 2 != ack_checksum(next)) return;  // corrupted
      if (next > out.next_seq) return;
      out.acked_prefix = std::max(out.acked_prefix, next);
      return;
    }
    case kRelData0:
    case kRelData1:
    case kRelRecW0:
    case kRelRecW1: {
      RecvSlot* slot = fresh_slot(in, hi32(w.a));
      if (slot == nullptr) return;
      slot->rec = slot->rec || w.tag == kRelRecW0 || w.tag == kRelRecW1;
      if (w.tag == kRelData0 || w.tag == kRelRecW0) {
        slot->have0 = true;
        slot->a0 = w.a;
        slot->b0 = w.b;
      } else {
        slot->have1 = true;
        slot->a1 = w.a;
        slot->b1 = w.b;
      }
      if (!(slot->have0 && slot->have1)) return;
      Word word;
      word.tag = static_cast<std::int32_t>(lo32(slot->a0));
      word.a = slot->b0;
      word.b = slot->b1;
      word.quantum = ((lo32(slot->a1) >> 1) & 1) != 0;
      const std::uint32_t seq = hi32(w.a);
      const std::uint32_t expect =
          slot->rec ? rec_data_checksum(seq, word) : data_checksum(seq, word);
      const bool intact = lo32(slot->a1) >> 2 == expect;
      slot->have0 = slot->have1 = false;
      if (!intact) {
        // Corrupted frame: discard, retransmission recovers it.
        slot->rec = false;
        return;
      }
      slot->item.kind = slot->rec ? ItemKind::kRecData : ItemKind::kData;
      slot->item.word = word;
      slot->ready = true;
      return;
    }
    case kRelFence: {
      const std::uint32_t seq = hi32(w.a);
      const bool final = ((lo32(w.a) >> 1) & 1) != 0;
      const std::size_t round = hi32(w.b);
      const std::size_t horizon = lo32(w.b);
      if (lo32(w.a) >> 2 != fence_checksum(seq, round, horizon, final)) return;
      RecvSlot* slot = fresh_slot(in, seq);
      if (slot == nullptr) return;
      slot->item.kind = ItemKind::kFence;
      slot->item.final = final;
      slot->item.a = round;
      slot->item.b = horizon;
      slot->ready = true;
      return;
    }
    case kRelRecReq: {
      const std::uint32_t seq = hi32(w.a);
      const std::size_t from = hi32(w.b);
      const std::size_t to = lo32(w.b);
      // Corrupted: the peer's retransmission recovers it.
      if (lo32(w.a) >> 2 != rec_req_checksum(seq, from, to)) return;
      RecvSlot* slot = fresh_slot(in, seq);
      if (slot == nullptr) return;
      slot->item.kind = ItemKind::kRecReq;
      slot->item.a = from;
      slot->item.b = to;
      slot->ready = true;
      return;
    }
    case kRelRecHdr: {
      const std::uint32_t seq = hi32(w.a);
      const std::size_t round = hi32(w.b);
      const std::uint32_t count = lo32(w.b);
      if (lo32(w.a) >> 2 != rec_hdr_checksum(seq, round, count)) return;
      RecvSlot* slot = fresh_slot(in, seq);
      if (slot == nullptr) return;
      slot->item.kind = ItemKind::kRecHdr;
      slot->item.a = round;
      slot->item.b = count;
      slot->ready = true;
      return;
    }
    default:
      return;  // not a link-layer chunk; ignore
  }
}

void ReliableProgram::drain_ready(std::size_t ni) {
  InLink& in = in_[ni];
  if (in.slots.empty()) return;
  while (in.slots.at(in.next_expected).ready) {
    RecvSlot& slot = in.slots.at(in.next_expected);
    slot.ready = false;
    slot.rec = false;
    if (in.next_expected == in.acked) in.unacked_since = now_;
    ++in.next_expected;
    const Item& item = slot.item;
    switch (item.kind) {
      case ItemKind::kFence: {
        // Stream order guarantees all data belonging to rounds <= the
        // fenced round precedes the fence; the unfenced words belong to
        // exactly that round.
        for (std::size_t k = in.unfenced_from; k < in.words.size(); ++k) {
          in.words[k].round = item.a;
        }
        in.unfenced_from = in.words.size();
        in.fenced_round = std::max(in.fenced_round, static_cast<std::int64_t>(item.a));
        if (item.final) in.final_seen = true;
        raise_horizon(item.b);
        break;
      }
      case ItemKind::kData:
        if (inner_halted_) {
          throw std::logic_error("Engine: message delivered to a halted node");
        }
        in.words.push_back(RoundWord{0, item.word});
        // The word was sent in a round x after the last one fenced, so
        // round x + 1 >= fenced_round + 2 must run to deliver it. Raising
        // the horizon on arrival, not when the word's fence lands, lets it
        // run ahead of the data front.
        raise_horizon(static_cast<std::size_t>(in.fenced_round + 2));
        break;
      case ItemKind::kRecReq:
        respond_state_transfer(ni, item.a, item.b);
        break;
      case ItemKind::kRecHdr:
        on_rec_header(ni, item.a, item.b);
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
void ReliableProgram::respond_state_transfer(std::size_t ni, std::size_t from,
                                             std::size_t to) {
  OutLink& out = out_[ni];
  for (std::size_t r = from; r < to; ++r) {
    Item hdr;
    hdr.kind = ItemKind::kRecHdr;
    hdr.a = r;
    if (r < out.log_floor) {
      // Pruned beyond reach — unreachable under the documented margin, but
      // answered honestly so the requester dies loudly instead of
      // replaying wrong inboxes.
      hdr.b = kRecUnavailable;
      enqueue_item(ni, hdr);
      continue;
    }
    auto [lo, hi] = std::equal_range(
        out.sent_log.begin(), out.sent_log.end(), LoggedWord{r, Word{}},
        [](const LoggedWord& x, const LoggedWord& y) { return x.round < y.round; });
    hdr.b = static_cast<std::size_t>(hi - lo);
    enqueue_item(ni, hdr);
    for (auto it = lo; it != hi; ++it) {
      Item data;
      data.kind = ItemKind::kRecData;
      data.word = it->word;
      enqueue_item(ni, data);
    }
  }
}

void ReliableProgram::on_rec_header(std::size_t ni, std::size_t round, std::size_t count) {
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

void ReliableProgram::on_rec_word(std::size_t ni, const Word& w) {
  RecState& rs = rec_[ni];
  if (rs.open_left == 0) return;  // stray word; nothing claims it
  --rs.open_left;
  if (!rs.discard) rs.words[rs.open_round].push_back(w);
}

/// Once every link delivered its full [req_lo_, req_hi_) response, replay.
void ReliableProgram::try_finish_recovery() {
  for (const RecState& rs : rec_) {
    if (!rs.pending) continue;
    if (rs.expected.size() != req_hi_ - req_lo_) return;
    if (rs.open_left != 0) return;  // the last header's words still inbound
  }
  do_replay();
}

/// Re-execute rounds [replay_from_, replay_to_) on the reconstructed inner
/// program, feeding each round the inbox rebuilt from the neighbors'
/// replayed send logs (round r consumes sends of round r - 1, in ascending
/// sender id, exactly like execute_round). Recoverable programs draw no
/// randomness and the link layer delivered the original words verbatim, so
/// the replay lands exactly on the pre-crash trajectory: next_round_,
/// halting, and the horizon all re-derive their surviving values, and the
/// normal execute loop resumes seamlessly.
void ReliableProgram::do_replay() {
  replay_mode_ = true;
  for (std::size_t r = replay_from_; r < replay_to_; ++r) {
    inbox_.clear();
    if (r > 0) {
      for (std::size_t ni : by_id_) {
        auto it = rec_[ni].words.find(r - 1);
        if (it == rec_[ni].words.end()) continue;
        for (const Word& w : it->second) inbox_.push_back(Message{adj_[ni], w});
      }
    }
    run_inner(r, inbox_);
  }
  replay_mode_ = false;
  recovering_ = false;
  for (RecState& rs : rec_) rs = RecState{};
  engine_->note_recovery_activity();
}

/// Acks are cumulative and deferred: an ack rides on budget left over after
/// a link's chunks, unless it is urgent — half a window is unacked, the
/// oldest receipt is half a timeout old, or a duplicate showed the peer is
/// already retransmitting — in which case it goes first.
bool ReliableProgram::ack_urgent(const InLink& in) const {
  if (in.duplicate) return true;
  if (in.next_expected == in.acked) return false;
  return in.next_expected - in.acked >= params_.window / 2 ||
         now_ - in.unacked_since >= params_.rto_rounds / 2;
}

void ReliableProgram::send_ack(Context& ctx, std::size_t ni) {
  InLink& in = in_[ni];
  const std::uint32_t cksum = ack_checksum(in.next_expected);
  ctx.send(adj_[ni], Word{kRelAck, pack(0, cksum << 2),
                          static_cast<std::int64_t>(in.next_expected), false});
  in.acked = in.next_expected;
  in.duplicate = false;
}

/// One pass of every link: its fence news (announce), an urgent ack, the
/// window's chunks, then a deferred ack on leftover budget. Returns whether
/// some link still has frames unacked or owes an ack.
bool ReliableProgram::transmit(Context& ctx) {
  bool pending = false;
  for (std::size_t ni = 0; ni < adj_.size(); ++ni) {
    if (fence_news_) announce(ni);
    std::size_t budget = ctx.bandwidth();
    const NodeId peer = adj_[ni];
    OutLink& out = out_[ni];
    if (ack_urgent(in_[ni])) {
      send_ack(ctx, ni);
      --budget;
    }
    // The window's frames, oldest first: finish initial transmissions and
    // restart timed-out ones with capped exponential backoff. The doubled
    // timeout is then jittered downward by a hash of (link, seq, attempt):
    // on a high-loss link every frame times out on the same schedule, and
    // without the jitter whole neighborhoods re-fire in the same round —
    // a synchronized retransmit storm that keeps colliding with itself.
    // Hash-derived jitter keeps the run seed-deterministic (no RNG draw).
    const std::uint32_t in_flight = std::min<std::uint32_t>(
        out.next_seq - out.acked_prefix, static_cast<std::uint32_t>(params_.window));
    for (std::uint32_t seq = out.acked_prefix; seq != out.acked_prefix + in_flight;
         ++seq) {
      if (budget == 0) break;
      OutSlot& slot = out.items.at(seq);
      if (slot.fully_sent) {
        if (now_ < slot.last_sent_round + slot.rto) continue;
        slot.fully_sent = false;
        slot.chunks_sent = 0;
        std::size_t backoff = std::min(slot.rto * 2, params_.rto_cap);
        std::size_t spread = backoff / 4;
        if (spread > 1) {
          std::uint64_t h = util::mix64(
              util::mix64(kChecksumSalt ^ (static_cast<std::uint64_t>(id_) << 40) ^
                          (static_cast<std::uint64_t>(peer) << 20) ^ seq) ^
              slot.rto);
          backoff -= static_cast<std::size_t>(h % spread);
        }
        slot.rto = backoff;
        engine_->note_retransmission();
      }
      while (budget > 0 && !slot.fully_sent) {
        ctx.send(peer, make_chunk(seq, slot.item, slot.chunks_sent));
        if (slot.item.is_recovery()) engine_->note_recovery_words(1);
        ++slot.chunks_sent;
        --budget;
        if (slot.chunks_sent == slot.item.chunk_count()) {
          slot.fully_sent = true;
          slot.last_sent_round = now_;
        }
      }
    }
    if (budget > 0 && ack_owed(in_[ni])) send_ack(ctx, ni);
    pending = pending || out.next_seq != out.acked_prefix || ack_owed(in_[ni]);
  }
  fence_news_ = false;
  return pending;
}

Word ReliableProgram::make_chunk(std::uint32_t seq, const Item& item,
                                 std::size_t chunk) const {
  switch (item.kind) {
    case ItemKind::kFence: {
      std::uint32_t cksum = fence_checksum(seq, item.a, item.b, item.final);
      std::uint32_t lo = (cksum << 2) | (item.final ? 2u : 0u);
      return Word{kRelFence, pack(seq, lo),
                  pack(static_cast<std::uint32_t>(item.a),
                       static_cast<std::uint32_t>(item.b)),
                  false};
    }
    case ItemKind::kRecReq: {
      std::uint32_t cksum = rec_req_checksum(seq, item.a, item.b);
      return Word{kRelRecReq, pack(seq, cksum << 2),
                  pack(static_cast<std::uint32_t>(item.a),
                       static_cast<std::uint32_t>(item.b)),
                  false};
    }
    case ItemKind::kRecHdr: {
      auto count = static_cast<std::uint32_t>(item.b);
      std::uint32_t cksum = rec_hdr_checksum(seq, item.a, count);
      return Word{kRelRecHdr, pack(seq, cksum << 2),
                  pack(static_cast<std::uint32_t>(item.a), count), false};
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
