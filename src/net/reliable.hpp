#pragma once

#include <memory>
#include <span>

#include "src/net/engine.hpp"

namespace qcongest::net {

/// The reliable link transport: an ack/retransmit sliding-window link layer
/// that presents *perfect synchronous rounds* to an unmodified NodeProgram
/// while running over a network with drops, corruption, duplication, and
/// crash-restart outages.
///
/// Mechanism (per directed link, all deterministic):
///  - Every logical word and every round fence is a sequence-numbered item
///    in a per-link stream. Data items travel as two physical word chunks
///    (header+payload-a, checksum+payload-b); fences and acks are one word.
///  - A per-item checksum (salted 30-bit mix over the full frame) detects
///    payload corruption; corrupted or incomplete frames are discarded and
///    recovered by retransmission.
///  - Cumulative, deferred acks: an ack rides on budget a link has left
///    after its chunks, and goes ahead of them only when half a window is
///    unacked, the oldest unacked receipt is rto_rounds/2 physical rounds
///    old, or a duplicate shows the peer is already retransmitting.
///  - Unacked items are re-sent after a timeout with exponential backoff
///    (Engine::note_retransmission counts each re-send). Backoff is capped
///    at ReliableParams::rto_cap and deterministically jittered (a hash of
///    link, sequence number, and current timeout) so that retransmissions
///    for independent links desynchronize instead of thundering in
///    lockstep.
///  - Duplicates are discarded by sequence number; delivery to the program
///    is exactly-once, in order.
///  - Send windows and reorder buffers are rings indexed by sequence
///    number that grow by doubling, so the per-word path allocates nothing
///    in steady state and a link's memory follows what it has in flight.
///
/// Round synchronization is one *horizon* rule, a synchronizer in the
/// spirit of Awerbuch's alpha-synchronizer. Every wrapper keeps a horizon:
/// the highest virtual round some node is known to need. It rises to r + 1
/// when the inner program sends or calls keep_alive in round r, to f + 2
/// when a data word arrives behind the sender's fence for round f (the
/// word was sent in some round x > f, and round x + 1 delivers it), and to
/// the horizon carried by any fence received. A node executes every round
/// r <= horizon whose inputs are complete (every neighbor has fenced r - 1,
/// or halted), and fences every round it executes. A fence word carries
/// (round, horizon) under its checksum; fences are cumulative, so one fence
/// per link per pass covers a burst of executed rounds, except that a link
/// that carried data in round r is fenced right after that round, which
/// attributes its words to r. A node keeps relaying horizon rises after its
/// program halts (with the final flag set), so the horizon reaches every
/// node of a connected graph.
///
/// The result equals the direct transport on a perfect network: every node
/// runs rounds 0..R, where R is the direct engine's last round, and round
/// r's inbox is what its neighbors sent in round r - 1, assembled in
/// ascending sender id — the direct engine's delivery order. The inner
/// execution, and hence the protocol's outputs, are therefore identical
/// across fault rates and fault seeds. Fault-free, a virtual round costs a
/// constant number of physical rounds (4.0-4.5 at B = 1 on paths, cycles
/// and grids of 64-256 nodes), whatever the diameter. The run still
/// quiesces: once nothing is sent or kept alive the horizon stops rising,
/// the last fences are acked, and the engine's quiescence rule fires.
///
/// Contract: a program that idles intending to act in a later round must
/// call Context::keep_alive every idle round — the same contract the
/// engine's own quiescence rule already imposes.
///
/// The CONGEST(B) budget is respected physically: acks, fences, chunks, and
/// retransmissions all share the B words per edge per round, which is what
/// the measured "reliability tax" in rounds and words consists of.
///
/// Crash-with-amnesia recovery (when Engine::set_recovery is enabled): each
/// wrapper keeps per-link logs of the words its program sent in every
/// virtual round (pruned once a checkpoint makes them unnecessary) and
/// periodically checkpoints the inner program's snapshot. When an amnesia
/// crash destroys a node's volatile state, the wrapper rebuilds the program
/// by state transplant — a factory-fresh instance's snapshot restored into
/// the scheduled object — then restores the last intact checkpoint and
/// replays the checkpoint-to-crash virtual rounds against neighbor-assisted
/// state transfer: REQ/HDR/DATA items (sequence-numbered like any other
/// item, sharing the CONGEST(B) budget) ship the neighbors' logged sends
/// for the replay window. Replayed rounds re-derive the node's own sends,
/// halting and horizon, so the node lands exactly on its pre-crash
/// trajectory; the extra traffic is the *recovery tax* reported in
/// RunResult::recovery_words / recovery_rounds. Link-layer state (sequence
/// numbers, in-flight windows, fences, the horizon) deliberately survives
/// amnesia — it models the NIC, not the node's volatile memory.
///
/// Programs opt in without rewrites: they receive a ReliableContext (a
/// Context subclass) whose send/halt/keep_alive route through the link
/// layer. Enable per engine with
/// `engine.set_transport(Transport::kReliable, params)`.
std::vector<std::unique_ptr<NodeProgram>> wrap_reliable(
    std::span<const std::unique_ptr<NodeProgram>> programs, Engine& engine,
    const ReliableParams& params);

}  // namespace qcongest::net
