#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/net/fault.hpp"
#include "src/net/graph.hpp"
#include "src/net/message.hpp"
#include "src/recover/checkpoint.hpp"
#include "src/util/arena.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace qcongest::net {

class Engine;
struct RunResult;

/// What the fault lottery decided for one admitted word.
enum class DeliveryFate {
  /// Placed in the receiver's next-round inbox.
  kDelivered,
  /// Lost to the per-link drop lottery.
  kDroppedLottery,
  /// Lost because the receiver is inside a crash window at arrival time.
  kDroppedCrashed,
};

/// Passive tap on the engine's scheduling and delivery decisions, the hook
/// the trace (src/net/trace.hpp), the round profiler, the liveness watchdog
/// and the model-conformance verifier (src/check/verifier.hpp) hang off.
/// Observers must not mutate the engine or send messages; they see every
/// admitted word, its fate, every retransmission note, and round/run
/// boundaries — enough to re-derive all of RunResult independently and
/// cross-check the engine's own accounting.
///
/// Observer callbacks always fire on the engine's own thread in canonical
/// delivery order — ascending (sender, send order) within a round — even
/// when the round itself was executed by parallel shards (see
/// Engine::set_threads), so an observer never needs locks. Each event goes
/// to the installed observers in list order (Engine::set_observers).
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  /// A fresh run is starting (per-run observer state should reset).
  virtual void on_run_begin(const Engine& engine) { (void)engine; }
  /// A word passed bandwidth admission on (from, to) in `round`.
  /// `edge_words` is the per-round count on that directed edge after this
  /// send (so 1 <= edge_words <= bandwidth when the engine is honest).
  virtual void on_send(std::size_t round, NodeId from, NodeId to, const Word& word,
                       std::size_t edge_words) {
    (void)round, (void)from, (void)to, (void)word, (void)edge_words;
  }
  /// The fate of the word just admitted by on_send. `corrupted` /
  /// `duplicated` only apply to delivered words.
  virtual void on_delivery(std::size_t round, NodeId from, NodeId to,
                           DeliveryFate fate, bool corrupted, bool duplicated) {
    (void)round, (void)from, (void)to, (void)fate, (void)corrupted, (void)duplicated;
  }
  /// The reliable transport re-sent a frame during `round`.
  virtual void on_retransmission(std::size_t round) { (void)round; }
  /// All programs have taken their turn for `round`.
  virtual void on_round_end(std::size_t round) { (void)round; }
  /// The run returned normally with the given final stats. Not called when
  /// run() exits by exception — the caller that catches it decides what to
  /// do with the partial observations.
  virtual void on_run_end(const RunResult& stats) { (void)stats; }
};

/// Per-round, per-node view of the network. Programs may only touch their
/// own id, their neighbor list, and their inbox — the CONGEST locality
/// constraint.
///
/// The mutating entry points (send / halt / keep_alive) are virtual so a
/// transport adapter (see src/net/reliable.hpp) can interpose between a
/// NodeProgram and the engine without the program being rewritten.
class Context {
 public:
  virtual ~Context() = default;

  NodeId id() const { return id_; }
  std::size_t round() const { return round_; }
  std::size_t num_nodes() const;  // n is global knowledge in CONGEST
  /// Per-edge per-direction words per round (the CONGEST(B) parameter).
  std::size_t bandwidth() const;
  const std::vector<NodeId>& neighbors() const;

  /// Queue a word for delivery to `to` (must be a neighbor) at the start of
  /// the next round. Throws if the edge's bandwidth for this round is
  /// exhausted — protocols are responsible for their own congestion control.
  virtual void send(NodeId to, Word word);

  /// Mark this node finished. A halted node is no longer scheduled; the run
  /// ends when every node has halted and no messages are in flight.
  virtual void halt() { halted_ = true; }

  /// Declare that this node intends to act in a *later* round even though it
  /// neither sent nor received anything this round (e.g. it is waiting on a
  /// retransmission timer). The engine's quiescence rule — terminate after
  /// any globally silent pass — would otherwise end the run underneath it.
  /// Call this every round the intent holds; it is cleared each pass.
  virtual void keep_alive() { keep_alive_ = true; }

  /// Node-local randomness (forked per node from the engine seed).
  virtual util::Rng& rng() { return *rng_; }

 protected:
  // Adapters populate these directly (they have no Engine of their own).
  friend class Engine;
  Engine* engine_ = nullptr;
  NodeId id_ = 0;
  std::size_t round_ = 0;
  util::Rng* rng_ = nullptr;
  bool halted_ = false;
  bool keep_alive_ = false;
};

/// A node's protocol logic. One instance per node; the engine invokes
/// on_round once per round with all messages delivered this round.
///
/// Under Engine::set_threads(t > 1) different nodes' on_round calls for the
/// same round may execute concurrently. A program may freely touch its own
/// state, its Context, and per-node slots of shared result arrays (distinct
/// elements of a std::vector<T> for T other than bool are distinct memory
/// locations); it must not mutate state shared with other nodes' programs
/// mid-round — which a correct CONGEST protocol has no business doing
/// anyway, since nodes only communicate through messages.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;
  /// The inbox is a view into the engine's per-round delivery arena, valid
  /// only for the duration of this call — programs that need messages later
  /// must copy them (the words, not the span).
  virtual void on_round(Context& ctx, std::span<const Message> inbox) = 0;

  // --- Durable-state interface (crash-with-amnesia recovery) -------------
  // A program opts in to recoverability by overriding snapshot/restore (and
  // bumping state_version when the word format changes). The contract: the
  // serialized words must capture the program's entire evolving state — so
  // that restore(snapshot()) followed by a replay of the same inboxes
  // reproduces the same behavior — and a recoverable program must not draw
  // from ctx.rng() (replayed rounds would re-draw from an advanced stream).
  // Members reconstructed by the run's program factory (config, pointers to
  // shared immutable inputs) are exempt; the qlint `unsnapshotted-state`
  // rule checks the rest.

  /// Append the program's durable state to `out` as words. Return false if
  /// the program does not support snapshots (the default).
  virtual bool snapshot(std::vector<std::int64_t>& out) const {
    (void)out;
    return false;
  }
  /// Overwrite the program's state from words produced by snapshot() under
  /// the given state-format version. Return false to reject (unknown
  /// version, malformed words) — the node then recovers from the start of
  /// the phase, or dies if it cannot.
  virtual bool restore(std::uint32_t version, std::span<const std::int64_t> words) {
    (void)version, (void)words;
    return false;
  }
  /// Version tag of the snapshot word format.
  virtual std::uint32_t state_version() const { return 0; }

  /// Hook invoked on the outermost program when its node restarts from an
  /// amnesia crash (engine thread, ascending node order, before the restart
  /// round executes). Return true when the program handled the wipe itself —
  /// the reliable-transport adapter does, reconstructing its inner program
  /// and orchestrating neighbor-assisted catch-up (src/net/reliable.cpp).
  /// The default returns false, letting the engine apply its direct-transport
  /// recovery path (factory reconstruction + checkpoint restore) or declare
  /// the node dead.
  virtual bool on_amnesia_restart(std::size_t restart_round) {
    (void)restart_round;
    return false;
  }
};

/// Statistics of one protocol run.
struct RunResult {
  std::size_t rounds = 0;
  /// All nodes halted (or quiesced) before the round limit. Defaults to
  /// true so that a fresh RunResult{} is the identity of operator+= — a
  /// phase accumulator that never runs a phase is vacuously complete, and
  /// one incomplete phase poisons the whole sum.
  bool completed = true;
  std::size_t messages = 0;
  std::size_t classical_words = 0;
  std::size_t quantum_words = 0;
  /// Peak words sent over one directed edge in one round; always <= the
  /// engine's bandwidth (the CONGEST constraint), recorded for
  /// observability and utilization analysis.
  std::size_t max_edge_words = 0;
  /// Words that crossed the tracked cut (Engine::track_cut), both
  /// directions. Zero when no cut is tracked. This is the two-party
  /// communication of the reduction arguments (Lemmas 11/13/15, Thm 18):
  /// a CONGEST protocol on a gadget graph induces a two-party protocol
  /// whose communication is exactly the words crossing the cut.
  std::size_t cut_words = 0;

  // --- Fault-injection counters (zero on a perfect network) --------------
  /// Words lost in transit: the drop lottery, plus words that arrived at a
  /// crashed node.
  std::size_t dropped_words = 0;
  /// Words whose payload bits were flipped in transit (still delivered).
  std::size_t corrupted_words = 0;
  /// Extra copies injected by the duplication lottery (not charged against
  /// the sender's bandwidth — the network, not the node, duplicates).
  std::size_t duplicated_words = 0;
  /// Frames re-sent by the reliable link layer (reported via
  /// Engine::note_retransmission by the transport).
  std::size_t retransmissions = 0;
  /// Crash events that actually fired during the run (a node with two
  /// disjoint outage windows counts twice).
  std::size_t crashed_nodes = 0;

  // --- Recovery counters (the "recovery tax", zero without amnesia) ------
  /// Physical state-transfer words spent on neighbor-assisted catch-up
  /// (requests, headers, replayed data, including their retransmissions).
  /// They share the CONGEST(B) budget with protocol traffic.
  std::size_t recovery_words = 0;
  /// Rounds in which any recovery activity happened (a node was catching up
  /// or state-transfer words moved).
  std::size_t recovery_rounds = 0;

  /// Accumulate a subsequent phase's cost (protocols compose sequentially).
  /// RunResult{} is the identity: completed starts true, everything else 0.
  RunResult& operator+=(const RunResult& other) {
    rounds += other.rounds;
    completed = completed && other.completed;
    messages += other.messages;
    classical_words += other.classical_words;
    quantum_words += other.quantum_words;
    max_edge_words = std::max(max_edge_words, other.max_edge_words);
    cut_words += other.cut_words;
    dropped_words += other.dropped_words;
    corrupted_words += other.corrupted_words;
    duplicated_words += other.duplicated_words;
    retransmissions += other.retransmissions;
    crashed_nodes += other.crashed_nodes;
    recovery_words += other.recovery_words;
    recovery_rounds += other.recovery_rounds;
    return *this;
  }

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// How Engine::run moves words between programs.
enum class Transport {
  /// Words sent in round r arrive in round r + 1, subject to the fault plan.
  kDirect,
  /// Every program is wrapped in the ack/retransmit sliding-window link
  /// layer (src/net/reliable.hpp): programs see perfect synchronous rounds
  /// even on a lossy network, at a measured round/word overhead.
  kReliable,
};

/// Tuning of the reliable link transport (Transport::kReliable).
struct ReliableParams {
  /// Max unacknowledged frames per directed link before new frames queue.
  std::size_t window = 16;
  /// Initial retransmission timeout in physical rounds.
  std::size_t rto_rounds = 8;
  /// Exponential-backoff cap for the timeout.
  std::size_t rto_cap = 128;
  /// Physical-round budget per virtual round: run(programs, R) may spend up
  /// to R * round_stretch + round_slack physical rounds before giving up.
  std::size_t round_stretch = 24;
  std::size_t round_slack = 256;
};

/// Synchronous CONGEST round scheduler with per-edge bandwidth enforcement,
/// deterministic fault injection, an optional reliable link transport, and
/// a deterministic sharded parallel execution mode (the "ParallelEngine"
/// mode, see set_threads).
class Engine {
 public:
  explicit Engine(const Graph& graph, std::size_t bandwidth_words = 1,
                  std::uint64_t seed = 1);

  const Graph& graph() const { return *graph_; }
  std::size_t bandwidth() const { return bandwidth_; }

  /// Run the given per-node programs (programs.size() == num_nodes) until
  /// all halt or `max_rounds` is reached. Message delivery: words sent in
  /// round r arrive in round r + 1.
  RunResult run(std::span<const std::unique_ptr<NodeProgram>> programs,
                std::size_t max_rounds);

  /// Track the words crossing the node bipartition (side[v] false/true) in
  /// every subsequent run — the two-party communication of the reduction
  /// arguments. Pass an empty vector to stop tracking.
  void track_cut(std::vector<bool> side);

  /// Install the passive observers of subsequent runs, replacing the whole
  /// previous list (null entries are skipped; an empty list detaches all).
  /// Every event goes to the observers in list order, so an observer that
  /// throws (recover::Watchdog) belongs last: the ones before it have seen
  /// the event it gives up on. Each must outlive every subsequent run.
  void set_observers(std::vector<EngineObserver*> observers);

  /// Install a deterministic fault schedule consulted on every delivery of
  /// every subsequent run. The plan is validated against the graph. An
  /// inactive plan (all-zero rates, no crashes) clears the previous one: no
  /// lottery is drawn and runs are byte-identical to a fault-free engine.
  ///
  /// The fault lottery draws from an independent RNG stream *per directed
  /// edge* (forked deterministically from the plan seed), so an edge's
  /// draws depend only on that edge's own traffic order — never on how
  /// sends across different edges interleave. This is what keeps faulty
  /// runs byte-identical between the serial and sharded-parallel paths.
  void set_fault_plan(FaultPlan plan);
  bool fault_plan_active() const { return fault_active_; }

  /// Select the transport for subsequent runs (default kDirect).
  void set_transport(Transport transport, ReliableParams params = {});
  Transport transport() const { return transport_; }

  /// Deterministic sharded round execution — the ParallelEngine mode.
  /// With threads > 1, each pass partitions the runnable nodes into
  /// contiguous shards executed concurrently on an internal worker pool;
  /// sends are admitted (bandwidth-checked) in the worker and buffered in
  /// a per-sender outbox, then merged on the engine thread in ascending
  /// (sender, send-order) — which is exactly the serial engine's delivery
  /// order, so traces, observer callbacks, fault lotteries, and every
  /// RunResult counter are byte-identical to threads == 1, for any thread
  /// count.
  ///
  /// threads == 0 or 1 selects the serial path. The knob is a no-op (runs
  /// stay serial) under Transport::kReliable, whose link adapters mutate
  /// shared engine state mid-round; see DESIGN.md "Execution model".
  void set_threads(std::size_t threads);
  std::size_t threads() const { return threads_ == 0 ? 1 : threads_; }

  /// Stats of the run in progress (or the last run) — valid even when run()
  /// exits by exception, so callers can charge aborted phases honestly.
  const RunResult& last_stats() const { return stats_; }

  /// Called by the reliable transport each time it re-sends a frame.
  void note_retransmission() {
    ++stats_.retransmissions;
    for (EngineObserver* o : observers_) o->on_retransmission(current_pass_);
  }

  // --- Crash-with-amnesia recovery (src/recover, DESIGN.md §11) ----------

  /// Configure recovery for subsequent runs. When enabled, nodes hit by an
  /// amnesia crash (CrashEvent::amnesia) reconstruct their program from the
  /// run's program factory, restore their latest checkpoint from the
  /// engine-owned store, and catch up; when disabled, an amnesia restart
  /// leaves the node effectively crash-stopped.
  void set_recovery(recover::RecoveryPolicy policy) { recovery_ = policy; }
  const recover::RecoveryPolicy& recovery() const { return recovery_; }

  /// The per-node "stable storage" checkpoints survive amnesia in. Reset at
  /// the start of every run (each framework phase recovers within itself).
  recover::CheckpointStore& checkpoint_store() { return checkpoint_store_; }

  /// Reconstructs a node's program from scratch — the recovery analogue of
  /// the construction the protocol function itself performed. Installed by
  /// each protocol-library phase for the duration of its run (it captures
  /// the phase's locals) and cleared when run() returns, so it never
  /// dangles.
  using ProgramFactory = std::function<std::unique_ptr<NodeProgram>(NodeId)>;
  void set_program_factory(ProgramFactory factory) {
    program_factory_ = std::move(factory);
  }
  const ProgramFactory& program_factory() const { return program_factory_; }

  /// Called by the transport for every physical state-transfer word it puts
  /// on the wire (recovery traffic shares the CONGEST(B) budget).
  void note_recovery_words(std::size_t words) {
    stats_.recovery_words += words;
    recovery_activity_ = true;
  }
  /// Flag the current round as spent (in part) on recovery; rounds with the
  /// flag raised are tallied into RunResult::recovery_rounds at pass end.
  void note_recovery_activity() { recovery_activity_ = true; }

 private:
  friend class Context;

  /// A send admitted by a parallel shard, awaiting the canonical-order
  /// merge on the engine thread. `edge_words` is the per-round count on the
  /// directed edge right after admission (what on_send reports).
  struct PendingSend {
    NodeId to = 0;
    Word word{};
    std::size_t slot = 0;
    std::size_t edge_words = 0;
  };

  /// Node v's inbox for the pass being executed: a contiguous span of the
  /// delivery arena (see scatter_inboxes).
  std::span<const Message> inbox_span(NodeId v) const {
    // Untouched receivers keep a stale offset (scatter bookkeeping is
    // scoped to touched nodes); never form a pointer from one.
    const std::size_t len = inbox_len_[v];
    if (len == 0) return {};
    return {inbox_msgs_ + inbox_offset_[v], len};
  }

  /// Append one delivery to the fill buffers (receiver-tagged, canonical
  /// send order). The hot path is two stores and a bump.
  void enqueue_delivery(NodeId to, const Message& m) {
    if (fill_count_ == fill_cap_) grow_fill();
    fill_to_[fill_count_] = to;
    fill_msgs_[fill_count_] = m;
    ++fill_count_;
  }
  void grow_fill();

  /// Start-of-pass delivery: stable counting scatter of the fill buffers
  /// into per-receiver contiguous spans of the delivery arena, then recycle
  /// the fill arena for the next pass. Replaces the old
  /// vector-of-vectors inbox swap-and-clear.
  void scatter_inboxes();
  /// Reset both message arenas to the empty state (run start).
  void reset_delivery_buffers();

  RunResult run_direct(std::span<const std::unique_ptr<NodeProgram>> programs,
                       std::size_t max_rounds);
  /// Amnesia handling for node v restarting at `round`: offer the wipe to
  /// the program (reliable adapter recovers itself); otherwise apply the
  /// engine's direct-transport path — transplant factory-fresh state into
  /// the program object and restore the latest checkpoint. Marks the node
  /// amnesia-dead when neither succeeds. Engine thread only.
  void handle_amnesia_restart(NodeProgram& program, NodeId v, std::size_t round);
  /// Engine-driven checkpointing (direct transport; the reliable adapter
  /// checkpoints at virtual-round boundaries itself).
  void write_checkpoints(std::span<const std::unique_ptr<NodeProgram>> programs,
                         std::size_t rounds_done);
  void run_pass_serial(std::span<const std::unique_ptr<NodeProgram>> programs,
                       std::size_t round, bool crash_active);
  void run_pass_parallel(std::span<const std::unique_ptr<NodeProgram>> programs,
                         std::size_t round, bool crash_active);
  void deliver(NodeId from, NodeId to, Word word);
  /// Bandwidth admission: validates the edge and charges one word against
  /// its per-round budget. Returns the slot; `sent_this_round_[slot]` is
  /// the count including this word. Safe to call from the sender's shard —
  /// a directed edge's budget is only ever touched by its own sender.
  std::size_t admit(NodeId from, NodeId to);
  /// Everything after admission: stats, cut tracking, observer callbacks,
  /// fault lottery, and the inbox push. Engine thread only.
  void commit(NodeId from, NodeId to, const Word& word, std::size_t slot,
              std::size_t edge_words);
  void corrupt_payload(Word& word, std::uint64_t raw);
  /// True when `node` is inside a crash window at round `round`.
  /// O(log events-on-node) via the per-node sorted crash schedule.
  bool crashed_at(NodeId node, std::size_t round) const;
  /// True when some node has a restart scheduled at or after `round` whose
  /// outage has already begun (the run must idle until it wakes).
  /// O(log restarts) via the sorted interval index built by set_fault_plan.
  bool restart_pending(std::size_t round) const;

  std::size_t edge_slot(NodeId from, NodeId to) const;

  const Graph* graph_;
  std::size_t bandwidth_;
  util::Rng seed_rng_;
  std::vector<util::Rng> node_rngs_;

  // Fault state (compiled from the plan).
  FaultPlan fault_plan_;
  bool fault_active_ = false;
  std::vector<FaultRates> edge_rates_;  // per directed edge slot
  std::vector<std::vector<CrashEvent>> crash_schedule_;  // per node, sorted
  std::vector<NodeId> crash_nodes_;  // nodes with at least one crash event
  /// Finite-restart windows sorted by crash_round with a running max of
  /// restart_round — the O(log) index behind restart_pending.
  std::vector<std::pair<std::size_t, std::size_t>> restart_windows_;
  std::vector<std::size_t> restart_prefix_max_;
  /// Rates compiled to fixed-point lottery thresholds (set_fault_plan).
  struct EdgeThresholds {
    std::uint64_t drop, corrupt, duplicate;
  };
  std::vector<EdgeThresholds> edge_thresholds_;  // per directed edge slot
  FaultLottery fault_lottery_;  // batched per-edge raw draws

  Transport transport_ = Transport::kDirect;
  ReliableParams reliable_params_;

  // Crash-with-amnesia recovery.
  recover::RecoveryPolicy recovery_;
  recover::CheckpointStore checkpoint_store_;
  ProgramFactory program_factory_;
  /// Per node: sorted restart rounds of its amnesia crash windows (finite
  /// restarts only), compiled by set_fault_plan.
  std::vector<std::vector<std::size_t>> amnesia_restarts_;
  /// Nodes whose amnesia restart failed (no recovery path): treated as
  /// crashed for the rest of the run.
  std::vector<unsigned char> amnesia_dead_;
  /// Per node: index of the first not-yet-applied entry of amnesia_restarts_
  /// this run (adjacent windows merge into one observed outage, so a single
  /// restart can consume several wipes).
  std::vector<std::size_t> amnesia_cursor_;
  bool recovery_activity_ = false;  // current pass touched recovery

  // Parallel execution (the ParallelEngine mode).
  std::size_t threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;

  // Per-run state. All buffers persist across passes and runs so the hot
  // loop never reallocates in steady state.
  //
  // Message delivery is arena-based (DESIGN.md §13): sends of pass r are
  // appended receiver-tagged to the flat fill buffers (fill arena) in
  // canonical (sender, send-order); at the start of pass r+1 a stable
  // counting scatter groups them by receiver into the delivery arena,
  // giving every node a contiguous inbox span. Both arenas are recycled
  // each pass with a pointer reset — no per-send push_back reallocation,
  // no per-node vector clears, no vector-of-vectors pointer chase.
  util::Arena fill_arena_;
  util::Arena deliver_arena_;
  Message* fill_msgs_ = nullptr;  // receiver-tagged sends, canonical order
  NodeId* fill_to_ = nullptr;
  std::size_t fill_count_ = 0;
  std::size_t fill_cap_ = 0;
  std::size_t fill_high_ = 0;  // high-water message count over all passes
  Message* inbox_msgs_ = nullptr;           // grouped by receiver
  std::vector<std::size_t> inbox_offset_;   // per node, into inbox_msgs_
  std::vector<std::size_t> inbox_len_;      // per node (clearable)
  std::vector<std::size_t> scatter_cursor_; // scatter write heads, scratch
  std::vector<NodeId> inbox_touched_;       // receivers with a nonzero inbox
  std::vector<Context> contexts_;
  std::vector<NodeId> active_;    // not-yet-halted nodes, ascending
  std::vector<NodeId> runnable_;  // active minus currently-crashed, per pass
  // Parallel mode: one flat send buffer per shard (a shard is executed by
  // exactly one worker, and nodes within it run in ascending order, so the
  // buffer is already in canonical order); per-node slices locate each
  // sender's sends for the merge.
  std::vector<std::vector<PendingSend>> shard_sends_;
  std::vector<std::uint32_t> shard_of_node_;  // per node, valid for runnable
  std::vector<std::size_t> shard_bounds_;     // shard s = runnable_[bounds[s], bounds[s+1])
  std::vector<std::size_t> outbox_off_;  // per node: slice of its shard buffer
  std::vector<std::size_t> outbox_len_;
  std::vector<std::size_t> shard_weights_;  // partition scratch, per runnable
  std::vector<unsigned char> crashed_now_;      // node crashed this round
  std::vector<unsigned char> crashed_arrival_;  // node crashed next round
  std::vector<unsigned char> was_crashed_;
  std::vector<std::size_t> sent_this_round_;  // indexed by directed edge slot
  std::vector<std::size_t> edge_slot_offset_;
  std::vector<bool> cut_side_;  // empty when no cut is tracked
  std::vector<EngineObserver*> observers_;  // callback order, no nulls
  RunResult stats_;
  NodeId current_sender_ = 0;
  std::size_t current_pass_ = 0;
  bool parallel_pass_ = false;   // sends buffer to outboxes instead of committing
  bool delivered_any_ = false;   // something was delivered for the next pass
  bool keep_alive_pending_ = false;
};

// Context accessors run once per node per round (or per send) — inline them
// so the hot loop pays no cross-TU call.
inline std::size_t Context::num_nodes() const { return engine_->graph().num_nodes(); }
inline std::size_t Context::bandwidth() const { return engine_->bandwidth(); }
inline const std::vector<NodeId>& Context::neighbors() const {
  return engine_->graph().neighbors(id_);
}

}  // namespace qcongest::net
