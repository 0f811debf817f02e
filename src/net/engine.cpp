#include "src/net/engine.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "src/net/reliable.hpp"
#include "src/net/violation.hpp"

namespace qcongest::net {

void Context::send(NodeId to, Word word) { engine_->deliver(id_, to, word); }

Engine::Engine(const Graph& graph, std::size_t bandwidth_words, std::uint64_t seed)
    : graph_(&graph), bandwidth_(bandwidth_words), seed_rng_(seed) {
  if (bandwidth_ == 0) throw std::invalid_argument("Engine: bandwidth 0");
  node_rngs_.reserve(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) node_rngs_.push_back(seed_rng_.fork());

  // Directed-edge slots for bandwidth accounting: node v's i-th neighbor
  // edge occupies slot edge_slot_offset_[v] + i.
  edge_slot_offset_.resize(graph.num_nodes() + 1, 0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    edge_slot_offset_[v + 1] = edge_slot_offset_[v] + graph.degree(v);
  }
}

void Engine::track_cut(std::vector<bool> side) {
  if (!side.empty() && side.size() != graph_->num_nodes()) {
    throw std::invalid_argument("track_cut: one side bit per node required");
  }
  cut_side_ = std::move(side);
}

void Engine::set_observers(std::vector<EngineObserver*> observers) {
  std::erase(observers, nullptr);
  observers_ = std::move(observers);
}

void Engine::set_fault_plan(FaultPlan plan) {
  plan.validate(graph_->num_nodes());
  fault_plan_ = std::move(plan);
  fault_active_ = fault_plan_.active();
  edge_rates_.clear();
  crash_schedule_.clear();
  crash_nodes_.clear();
  restart_windows_.clear();
  restart_prefix_max_.clear();
  edge_thresholds_.clear();
  fault_lottery_.clear();
  if (!fault_active_) return;

  const std::size_t n = graph_->num_nodes();
  edge_rates_.assign(edge_slot_offset_[n], fault_plan_.link);
  for (const auto& [edge, rates] : fault_plan_.edge_overrides) {
    if (!graph_->has_edge(edge.first, edge.second)) {
      throw std::invalid_argument("FaultPlan: override on a non-edge");
    }
    edge_rates_[edge_slot(edge.first, edge.second)] = rates;
  }

  crash_schedule_.assign(n, {});
  amnesia_restarts_.assign(n, {});
  for (const CrashEvent& c : fault_plan_.crashes) {
    if (crash_schedule_[c.node].empty()) crash_nodes_.push_back(c.node);
    crash_schedule_[c.node].push_back(c);
    if (c.restart_round != CrashEvent::kNeverRestarts) {
      restart_windows_.emplace_back(c.crash_round, c.restart_round);
      if (c.amnesia) amnesia_restarts_[c.node].push_back(c.restart_round);
    }
  }
  for (auto& rounds : amnesia_restarts_) std::sort(rounds.begin(), rounds.end());
  std::sort(crash_nodes_.begin(), crash_nodes_.end());
  // Per-node events sorted by crash start, with restart_round replaced by a
  // running max: "crashed at r" becomes one binary search for the last
  // window starting at or before r. The running max keeps the answer
  // correct even for overlapping windows (equivalent to OR-ing them all).
  for (auto& events : crash_schedule_) {
    std::sort(events.begin(), events.end(),
              [](const CrashEvent& a, const CrashEvent& b) {
                return a.crash_round < b.crash_round;
              });
    std::size_t running = 0;
    for (CrashEvent& c : events) {
      running = std::max(running, c.restart_round);
      c.restart_round = running;
    }
  }
  // Same trick globally for restart_pending: finite-restart windows sorted
  // by crash start plus a prefix max of restart rounds.
  std::sort(restart_windows_.begin(), restart_windows_.end());
  restart_prefix_max_.reserve(restart_windows_.size());
  std::size_t running = 0;
  for (const auto& [crash_round, restart_round] : restart_windows_) {
    running = std::max(running, restart_round);
    restart_prefix_max_.push_back(running);
  }

  // One independent lottery stream per directed edge, forked in slot order
  // from the plan seed (see FaultLottery). Rates compile down to fixed-point
  // thresholds once, here, so the delivery loop never touches a double.
  edge_thresholds_.clear();
  edge_thresholds_.reserve(edge_slot_offset_[n]);
  for (const FaultRates& rates : edge_rates_) {
    edge_thresholds_.push_back({FaultLottery::threshold(rates.drop),
                                FaultLottery::threshold(rates.corrupt),
                                FaultLottery::threshold(rates.duplicate)});
  }
  fault_lottery_.reset(fault_plan_.seed, edge_slot_offset_[n]);
}

void Engine::set_transport(Transport transport, ReliableParams params) {
  if (params.window == 0 || params.rto_rounds == 0 || params.round_stretch == 0) {
    throw std::invalid_argument("ReliableParams: window/rto/stretch must be positive");
  }
  transport_ = transport;
  reliable_params_ = params;
}

void Engine::set_threads(std::size_t threads) {
  threads_ = threads == 0 ? 1 : threads;
  if (threads_ == 1) pool_.reset();
}

std::size_t Engine::edge_slot(NodeId from, NodeId to) const {
  std::size_t index = graph_->neighbor_index(from, to);
  if (index == kUnreachable) {
    throw CongestViolation(CongestViolation::Kind::kNonNeighborSend, current_pass_,
                           from, to, /*words_attempted=*/1, bandwidth_);
  }
  return edge_slot_offset_[from] + index;
}

bool Engine::crashed_at(NodeId node, std::size_t round) const {
  if (crash_schedule_.empty()) return false;
  const auto& events = crash_schedule_[node];
  auto it = std::upper_bound(events.begin(), events.end(), round,
                             [](std::size_t r, const CrashEvent& c) {
                               return r < c.crash_round;
                             });
  if (it == events.begin()) return false;
  // restart_round holds the running max over all windows starting earlier
  // (see set_fault_plan), so this single check covers them all.
  return round < std::prev(it)->restart_round;
}

bool Engine::restart_pending(std::size_t round) const {
  if (restart_windows_.empty()) return false;
  // Windows with crash_round <= round are the prefix [begin, it).
  auto it = std::upper_bound(
      restart_windows_.begin(), restart_windows_.end(),
      std::make_pair(round, static_cast<std::size_t>(-1)));
  if (it == restart_windows_.begin()) return false;
  std::size_t idx = static_cast<std::size_t>(it - restart_windows_.begin()) - 1;
  // <= restart_round: the node must get its first post-outage round before
  // quiescence may end the run, or a scheduled restart could be silently
  // skipped.
  return restart_prefix_max_[idx] >= round;
}

void Engine::corrupt_payload(Word& word, std::uint64_t raw) {
  // Flip exactly one uniformly random bit of the 128 payload bits. The tag
  // is never corrupted (headers are assumed protected by heavier coding).
  // 128 divides 2^64, so masking the raw lottery draw is exactly uniform.
  std::size_t bit = raw & 127;
  auto flip = [](std::int64_t v, unsigned b) {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(v) ^ (1ULL << b));
  };
  if (bit < 64) {
    word.a = flip(word.a, static_cast<unsigned>(bit));
  } else {
    word.b = flip(word.b, static_cast<unsigned>(bit - 64));
  }
}

std::size_t Engine::admit(NodeId from, NodeId to) {
  std::size_t slot = edge_slot(from, to);
  if (sent_this_round_[slot] >= bandwidth_) {
    throw CongestViolation(CongestViolation::Kind::kBandwidthExceeded, current_pass_,
                           from, to, sent_this_round_[slot] + 1, bandwidth_);
  }
  ++sent_this_round_[slot];
  return slot;
}

void Engine::deliver(NodeId from, NodeId to, Word word) {
  if (parallel_pass_) {
    // Shard path: admission (bandwidth enforcement) happens here in the
    // sender's shard — each directed edge's budget is touched only by its
    // own sender, so this is race-free — while everything observable
    // (stats, observer callbacks, fault lottery, inbox push) waits for the
    // canonical-order merge on the engine thread. Each shard buffer is
    // touched only by the one worker executing that shard.
    std::size_t slot = admit(from, to);
    shard_sends_[shard_of_node_[from]].push_back(
        PendingSend{to, word, slot, sent_this_round_[slot]});
    return;
  }
  if (from != current_sender_) {
    throw std::logic_error("Engine: context used outside its node's turn");
  }
  const std::size_t slot = admit(from, to);
  commit(from, to, word, slot, sent_this_round_[slot]);
}

void Engine::commit(NodeId from, NodeId to, const Word& word, std::size_t slot,
                    std::size_t edge_words) {
  stats_.max_edge_words = std::max(stats_.max_edge_words, edge_words);
  if (!cut_side_.empty() && cut_side_[from] != cut_side_[to]) ++stats_.cut_words;
  ++stats_.messages;
  if (word.quantum) {
    ++stats_.quantum_words;
  } else {
    ++stats_.classical_words;
  }
  for (EngineObserver* o : observers_) {
    o->on_send(current_pass_, from, to, word, edge_words);
  }

  // Fault lottery, drawn from the edge's own stream in the fixed order
  // drop, corrupt, duplicate. Sends are counted above regardless of fate,
  // so a plan with all-zero rates leaves every counter byte-identical (a
  // kNever threshold draws nothing from the fault stream).
  Message delivered{from, word};
  DeliveryFate fate = DeliveryFate::kDelivered;
  bool corrupted = false;
  bool duplicated = false;
  if (fault_active_) {
    const EdgeThresholds& th = edge_thresholds_[slot];
    if (crashed_arrival_[to] != 0) {
      fate = DeliveryFate::kDroppedCrashed;
    } else if (fault_lottery_.draw(slot, th.drop)) {
      fate = DeliveryFate::kDroppedLottery;
    } else {
      if (fault_lottery_.draw(slot, th.corrupt)) {
        corrupt_payload(delivered.word, fault_lottery_.draw_raw(slot));
        ++stats_.corrupted_words;
        corrupted = true;
      }
      if (fault_lottery_.draw(slot, th.duplicate)) {
        ++stats_.duplicated_words;
        duplicated = true;
      }
    }
  }
  if (fate == DeliveryFate::kDelivered) {
    if (contexts_[to].halted_) {
      throw std::logic_error("Engine: message delivered to a halted node");
    }
    // The network, not the sender, duplicates: the extra copy is charged to
    // no edge budget and appears only in duplicated_words.
    for (int copies = duplicated ? 2 : 1; copies > 0; --copies) {
      enqueue_delivery(to, delivered);
    }
    delivered_any_ = true;
  } else {
    ++stats_.dropped_words;
  }
  for (EngineObserver* o : observers_) {
    o->on_delivery(current_pass_, from, to, fate, corrupted, duplicated);
  }
}

RunResult Engine::run(std::span<const std::unique_ptr<NodeProgram>> programs,
                      std::size_t max_rounds) {
  // The program factory captures the calling protocol function's locals;
  // drop it on every exit path so it can never dangle into the next run.
  struct FactoryGuard {
    Engine* engine;
    ~FactoryGuard() { engine->program_factory_ = nullptr; }
  } factory_guard{this};
  if (transport_ != Transport::kReliable) return run_direct(programs, max_rounds);
  // The reliable link layer needs extra physical rounds per virtual round
  // (frame chunking, acks, fences, retransmissions); stretch the budget so
  // callers keep passing their protocol-level round limits unchanged.
  std::size_t stretch = reliable_params_.round_stretch;
  std::size_t budget = max_rounds < static_cast<std::size_t>(-1) / stretch
                           ? max_rounds * stretch + reliable_params_.round_slack
                           : static_cast<std::size_t>(-1);
  auto wrapped = wrap_reliable(programs, *this, reliable_params_);
  return run_direct(wrapped, budget);
}

RunResult Engine::run_direct(std::span<const std::unique_ptr<NodeProgram>> programs,
                             std::size_t max_rounds) {
  const std::size_t n = graph_->num_nodes();
  if (programs.size() != n) {
    throw std::invalid_argument("Engine::run: one program per node required");
  }
  stats_ = RunResult{};

  // The reliable transport's link adapters mutate shared engine state from
  // inside on_round (note_retransmission), so its runs stay serial; see
  // DESIGN.md "Execution model".
  const bool parallel = threads_ > 1 && transport_ == Transport::kDirect && n > 1;
  if (parallel && (pool_ == nullptr || pool_->threads() != threads_)) {
    pool_ = std::make_unique<util::ThreadPool>(threads_);
  }

  // All per-run buffers persist across passes and runs (the arenas recycle
  // their blocks), so the steady-state hot loop allocates nothing.
  inbox_offset_.assign(n, 0);
  inbox_len_.assign(n, 0);
  scatter_cursor_.resize(n);
  inbox_touched_.reserve(n);
  runnable_.reserve(n);
  reset_delivery_buffers();
  sent_this_round_.assign(edge_slot_offset_[n], 0);
  contexts_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    Context& ctx = contexts_[v];
    ctx.engine_ = this;
    ctx.id_ = v;
    ctx.round_ = 0;
    ctx.rng_ = &node_rngs_[v];
    ctx.halted_ = false;
    ctx.keep_alive_ = false;
  }
  active_.resize(n);
  for (NodeId v = 0; v < n; ++v) active_[v] = v;
  const bool crash_active = fault_active_ && !crash_nodes_.empty();
  if (fault_active_) {
    was_crashed_.assign(n, 0);
    crashed_now_.assign(n, 0);
    crashed_arrival_.assign(n, 0);
  }
  if (crash_active) {
    amnesia_dead_.assign(n, 0);
    amnesia_cursor_.assign(n, 0);
  }
  // Checkpoints never outlive their run: each framework phase (= one engine
  // run) recovers within itself.
  if (recovery_.enabled) checkpoint_store_.reset(n);
  recovery_activity_ = false;
  delivered_any_ = false;
  parallel_pass_ = false;
  keep_alive_pending_ = false;
  for (EngineObserver* o : observers_) o->on_run_begin(*this);
  if (recovery_.enabled && recovery_.checkpoint.at_phase_start) {
    write_checkpoints(programs, /*rounds_done=*/0);
  }

  // Pass r delivers the words sent in pass r-1 (synchronous rounds). The
  // protocol's round complexity is the index of the last pass that sent
  // anything: a CONGEST round is a send plus its matching receive.
  //
  // Termination: (a) every node halted with nothing in flight, or (b)
  // quiescence — nothing was delivered this pass after the first, no
  // program asked to be kept alive (Context::keep_alive) in the previous
  // pass, and no crashed node is still waiting to restart. For
  // event-driven programs (the only kind the protocol library uses)
  // quiescence means nothing will ever happen again; programs that idle
  // intending to act later must call keep_alive every idle round.
  std::size_t last_send_pass = 0;
  bool sent_last_pass = false;
  for (std::size_t pass = 1; pass <= max_rounds + 1; ++pass) {
    scatter_inboxes();
    std::fill(sent_this_round_.begin(), sent_this_round_.end(), 0);

    const std::size_t round = pass - 1;
    const bool any_inbox = delivered_any_;
    delivered_any_ = false;

    // Drop newly halted nodes from the schedule. A word can land in a
    // halted node's inbox only when the receiver halted later in the same
    // pass as the send (commit catches the already-halted case), so this is
    // the one place left that must police stray deliveries.
    std::size_t keep = 0;
    for (NodeId v : active_) {
      if (contexts_[v].halted_) {
        if (inbox_len_[v] != 0) {
          throw std::logic_error("Engine: message delivered to a halted node");
        }
        continue;
      }
      active_[keep++] = v;
    }
    active_.resize(keep);
    const bool all_halted = active_.empty();

    // sent_last_pass matters only under faults: without them every send
    // becomes a delivery, so any_inbox covers it. With drops, a node whose
    // every word was lost still transmitted — it must stay scheduled.
    if ((all_halted || pass > 1) && !any_inbox && !sent_last_pass &&
        !keep_alive_pending_ && !(fault_active_ && restart_pending(round))) {
      stats_.rounds = last_send_pass;
      stats_.completed = true;
      for (EngineObserver* o : observers_) o->on_run_end(stats_);
      return stats_;
    }

    if (crash_active) {
      // Only nodes with crash events can ever transition; everyone else's
      // flags stay false for the whole run.
      for (NodeId v : crash_nodes_) {
        bool crashed = crashed_at(v, round);
        if (crashed && was_crashed_[v] == 0) ++stats_.crashed_nodes;
        if (!crashed && was_crashed_[v] != 0 && amnesia_dead_[v] == 0) {
          // The node is restarting this round. If any amnesia window ended
          // inside the outage it just left (adjacent windows merge into one
          // observed outage), its volatile state is gone now.
          auto& cursor = amnesia_cursor_[v];
          const auto& wipes = amnesia_restarts_[v];
          bool wiped = false;
          while (cursor < wipes.size() && wipes[cursor] <= round) {
            wiped = true;
            ++cursor;
          }
          if (wiped) handle_amnesia_restart(*programs[v], v, round);
        }
        if (amnesia_dead_[v] != 0) crashed = true;
        was_crashed_[v] = crashed ? 1 : 0;
        crashed_now_[v] = crashed ? 1 : 0;
        crashed_arrival_[v] =
            (crashed_at(v, round + 1) || amnesia_dead_[v] != 0) ? 1 : 0;
      }
    }

    current_pass_ = round;
    keep_alive_pending_ = false;
    const std::size_t messages_before = stats_.messages;
    if (parallel) {
      run_pass_parallel(programs, round, crash_active);
    } else {
      run_pass_serial(programs, round, crash_active);
    }
    sent_last_pass = stats_.messages > messages_before;
    if (sent_last_pass) last_send_pass = pass;
    if (recovery_.enabled && transport_ == Transport::kDirect &&
        recovery_.checkpoint.due(pass)) {
      write_checkpoints(programs, /*rounds_done=*/pass);
    }
    if (recovery_activity_) {
      ++stats_.recovery_rounds;
      recovery_activity_ = false;
    }
    for (EngineObserver* o : observers_) o->on_round_end(round);
  }
  stats_.rounds = last_send_pass;
  stats_.completed = false;
  for (EngineObserver* o : observers_) o->on_run_end(stats_);
  return stats_;
}

void Engine::handle_amnesia_restart(NodeProgram& program, NodeId v, std::size_t round) {
  // First offer: the outermost program may own the wipe (the reliable
  // transport adapter reconstructs its inner program and catches up via
  // neighbor-assisted state transfer, src/net/reliable.cpp). The program
  // reports its own recovery activity, so an "I had nothing to lose" true
  // does not inflate the recovery tax.
  if (program.on_amnesia_restart(round)) return;
  if (recovery_.enabled && program_factory_ != nullptr &&
      transport_ == Transport::kDirect) {
    // Direct-transport path: destroy-and-reconstruct by state transplant — a
    // factory-fresh program's serialized (round-0) state overwrites the
    // scheduled object, then the latest checkpoint rolls it forward. The
    // direct transport keeps no send logs, so the rounds between that
    // checkpoint and the crash are accepted as bounded rollback
    // (DESIGN.md §11).
    std::unique_ptr<NodeProgram> fresh = program_factory_(v);
    std::vector<std::int64_t> words;
    if (fresh != nullptr && fresh->snapshot(words) &&
        program.restore(fresh->state_version(), words)) {
      const recover::Snapshot* snap = checkpoint_store_.latest(v);
      if (snap == nullptr) {
        note_recovery_activity();  // recovered to phase-start state
        return;
      }
      if (snap->intact() && program.restore(snap->version, snap->words)) {
        note_recovery_activity();
        return;
      }
    }
  }
  // No recovery path: the restart leaves the node effectively crash-stopped
  // (it keeps dropping arrivals and is never scheduled again). Words already
  // in flight toward the restart round were committed before the death was
  // known — drop them here so the counters match a crash-stop exactly.
  amnesia_dead_[v] = 1;
  for (const Message& m : inbox_span(v)) {
    ++stats_.dropped_words;
    for (EngineObserver* o : observers_) {
      o->on_delivery(round, m.from, v, DeliveryFate::kDroppedCrashed,
                     /*corrupted=*/false, /*duplicated=*/false);
    }
  }
  inbox_len_[v] = 0;
}

void Engine::write_checkpoints(std::span<const std::unique_ptr<NodeProgram>> programs,
                               std::size_t rounds_done) {
  const bool crash_active = fault_active_ && !crash_nodes_.empty();
  std::vector<std::int64_t> words;
  for (NodeId v : active_) {
    // A crashed node did not execute this round; its previous checkpoint is
    // still the honest one.
    if (crash_active && crashed_now_[v] != 0) continue;
    words.clear();
    if (!programs[v]->snapshot(words)) continue;  // program opted out
    recover::Snapshot snap;
    snap.version = programs[v]->state_version();
    snap.round = rounds_done;
    snap.words = words;
    checkpoint_store_.put(v, std::move(snap));
  }
}

void Engine::run_pass_serial(std::span<const std::unique_ptr<NodeProgram>> programs,
                             std::size_t round, bool crash_active) {
  for (NodeId v : active_) {
    // Words addressed to a crashed node were already dropped at delivery
    // time; the node simply is not scheduled.
    if (crash_active && crashed_now_[v] != 0) continue;
    Context& ctx = contexts_[v];
    ctx.round_ = round;
    ctx.keep_alive_ = false;
    current_sender_ = v;
    programs[v]->on_round(ctx, inbox_span(v));
    if (ctx.keep_alive_) keep_alive_pending_ = true;
  }
}

void Engine::run_pass_parallel(std::span<const std::unique_ptr<NodeProgram>> programs,
                               std::size_t round, bool crash_active) {
  const std::size_t n = graph_->num_nodes();
  runnable_.clear();
  for (NodeId v : active_) {
    if (crash_active && crashed_now_[v] != 0) continue;
    runnable_.push_back(v);
  }
  const std::size_t count = runnable_.size();
  if (count == 0) return;

  for (NodeId v : runnable_) {
    Context& ctx = contexts_[v];
    ctx.round_ = round;
    ctx.keep_alive_ = false;
  }

  // Contiguous shards over the ascending runnable list, sized by measured
  // per-node delivery counts: a node's pass cost tracks the messages it
  // must consume, not its mere existence, so equal-node shards starve some
  // workers while one drags (the old p:32 > p:1 cliff). Weights are a
  // deterministic function of this pass's deliveries, and shard boundaries
  // only move work between workers — the merge below restores canonical
  // order regardless.
  const std::size_t shards = std::min(pool_->threads(), count);
  shard_weights_.resize(count);
  std::size_t total_weight = 0;
  for (std::size_t i = 0; i < count; ++i) {
    total_weight += 1 + inbox_len_[runnable_[i]];
    shard_weights_[i] = total_weight;  // inclusive prefix sum
  }
  shard_bounds_.resize(shards + 1);
  shard_bounds_[0] = 0;
  {
    std::size_t idx = 0;
    for (std::size_t s = 1; s < shards; ++s) {
      const std::size_t target = total_weight * s / shards;
      while (idx < count && shard_weights_[idx] < target) ++idx;
      // Clamp so every shard keeps at least one node.
      idx = std::max(idx, shard_bounds_[s - 1] + 1);
      idx = std::min(idx, count - (shards - s));
      shard_bounds_[s] = idx;
    }
  }
  shard_bounds_[shards] = count;

  if (shard_sends_.size() < shards) shard_sends_.resize(shards);
  if (shard_of_node_.size() < n) shard_of_node_.resize(n);
  if (outbox_off_.size() < n) {
    outbox_off_.resize(n);
    outbox_len_.resize(n);
  }
  for (std::size_t s = 0; s < shards; ++s) {
    shard_sends_[s].clear();
    for (std::size_t i = shard_bounds_[s]; i < shard_bounds_[s + 1]; ++i) {
      shard_of_node_[runnable_[i]] = static_cast<std::uint32_t>(s);
    }
  }

  // Workers only touch sender-owned state (their nodes' contexts, rngs,
  // inbox spans, shard buffer, and directed-edge budgets), so shards never
  // race; everything observable is replayed below in canonical order.
  std::vector<std::pair<NodeId, std::exception_ptr>> shard_error(shards);
  parallel_pass_ = true;
  pool_->parallel_for(shards, [&](std::size_t s) {
    std::vector<PendingSend>& sends = shard_sends_[s];
    for (std::size_t i = shard_bounds_[s]; i < shard_bounds_[s + 1]; ++i) {
      NodeId v = runnable_[i];
      outbox_off_[v] = sends.size();
      try {
        programs[v]->on_round(contexts_[v], inbox_span(v));
      } catch (...) {
        // First failure stops the shard; the merge below reconstructs the
        // serial engine's behavior from the smallest failing node.
        outbox_len_[v] = sends.size() - outbox_off_[v];
        shard_error[s] = {v, std::current_exception()};
        return;
      }
      outbox_len_[v] = sends.size() - outbox_off_[v];
    }
  });
  parallel_pass_ = false;

  NodeId error_node = kUnreachable;
  std::exception_ptr error;
  for (const auto& [v, e] : shard_error) {
    if (e != nullptr && (error == nullptr || v < error_node)) {
      error_node = v;
      error = e;
    }
  }

  // Canonical-order merge: ascending (sender, send order) is exactly the
  // serial engine's delivery order, so stats, observer stream, and
  // fault-lottery draws come out byte-identical for any thread count. On a
  // failure, nodes before the smallest offender plus the offender's
  // pre-failure sends are merged first — the same partial state the serial
  // engine leaves behind — then the offender's exception propagates (the
  // later shards' buffered sends are dropped, exactly as the serial engine
  // would never have executed those nodes).
  for (std::size_t s = 0; s < shards; ++s) {
    const std::vector<PendingSend>& sends = shard_sends_[s];
    for (std::size_t i = shard_bounds_[s]; i < shard_bounds_[s + 1]; ++i) {
      NodeId v = runnable_[i];
      current_sender_ = v;
      const std::size_t off = outbox_off_[v];
      const std::size_t len = outbox_len_[v];
      for (std::size_t j = off; j < off + len; ++j) {
        const PendingSend& send = sends[j];
        commit(v, send.to, send.word, send.slot, send.edge_words);
      }
      if (error != nullptr && v == error_node) std::rethrow_exception(error);
      if (contexts_[v].keep_alive_) keep_alive_pending_ = true;
    }
  }
}

void Engine::grow_fill() {
  // Amortized growth inside the fill arena: the abandoned old block is
  // reclaimed wholesale at the next scatter's reset, and once the arena has
  // seen its high-water pass the pre-sizing in scatter_inboxes makes this
  // path unreachable.
  const std::size_t cap = std::max<std::size_t>(64, fill_cap_ * 2);
  Message* msgs = fill_arena_.allocate<Message>(cap);
  NodeId* to = fill_arena_.allocate<NodeId>(cap);
  if (fill_count_ > 0) {
    std::memcpy(msgs, fill_msgs_, fill_count_ * sizeof(Message));
    std::memcpy(to, fill_to_, fill_count_ * sizeof(NodeId));
  }
  fill_msgs_ = msgs;
  fill_to_ = to;
  fill_cap_ = cap;
}

void Engine::scatter_inboxes() {
  // Group the fill buffer by receiver with a stable counting scatter —
  // within one receiver, messages keep their canonical (sender, send-order)
  // arrival order, exactly the old per-node push_back order.
  deliver_arena_.reset();
  inbox_msgs_ = deliver_arena_.allocate<Message>(fill_count_);
  // All per-node bookkeeping is scoped to *touched* receivers — last pass's
  // (zeroing stale lengths) and this pass's (counts and offsets) — so a
  // sparse pass costs O(messages), not O(n). Receiver blocks are laid out
  // in first-touch order; each node only ever reads its own span, and
  // within a span the stable scatter keeps the canonical arrival order.
  for (NodeId v : inbox_touched_) inbox_len_[v] = 0;
  inbox_touched_.clear();
  for (std::size_t i = 0; i < fill_count_; ++i) {
    if (inbox_len_[fill_to_[i]]++ == 0) inbox_touched_.push_back(fill_to_[i]);
  }
  std::size_t offset = 0;
  for (NodeId v : inbox_touched_) {
    inbox_offset_[v] = offset;
    scatter_cursor_[v] = offset;
    offset += inbox_len_[v];
  }
  for (std::size_t i = 0; i < fill_count_; ++i) {
    inbox_msgs_[scatter_cursor_[fill_to_[i]]++] = fill_msgs_[i];
  }
  // Recycle the fill arena for the coming pass, pre-sized to the high-water
  // message count so the append path never grows in steady state.
  fill_high_ = std::max(fill_high_, fill_count_);
  fill_arena_.reset();
  fill_cap_ = std::max<std::size_t>(64, fill_high_);
  fill_msgs_ = fill_arena_.allocate<Message>(fill_cap_);
  fill_to_ = fill_arena_.allocate<NodeId>(fill_cap_);
  fill_count_ = 0;
}

void Engine::reset_delivery_buffers() {
  inbox_touched_.clear();
  deliver_arena_.reset();
  inbox_msgs_ = deliver_arena_.allocate<Message>(0);
  fill_arena_.reset();
  fill_cap_ = std::max<std::size_t>(64, fill_high_);
  fill_msgs_ = fill_arena_.allocate<Message>(fill_cap_);
  fill_to_ = fill_arena_.allocate<NodeId>(fill_cap_);
  fill_count_ = 0;
}

}  // namespace qcongest::net
