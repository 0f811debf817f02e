#include "src/recover/checkpoint.hpp"

#include <utility>

#include "src/util/rng.hpp"

namespace qcongest::recover {
namespace {

// A chained fold over the splitmix64 finalizer: an order-sensitive digest
// of the word stream.
std::uint64_t digest(const Snapshot& s) {
  std::uint64_t h = util::mix64(0x5eedc0deULL);
  h = util::mix64(h ^ s.version);
  h = util::mix64(h ^ static_cast<std::uint64_t>(s.round));
  h = util::mix64(h ^ static_cast<std::uint64_t>(s.words.size()));
  for (std::int64_t w : s.words) {
    h = util::mix64(h ^ static_cast<std::uint64_t>(w));
  }
  return h;
}

}  // namespace

void Snapshot::seal() { checksum = digest(*this); }

bool Snapshot::intact() const { return checksum == digest(*this); }

void CheckpointStore::reset(std::size_t num_nodes) {
  slots_.assign(num_nodes, Snapshot{});
  present_.assign(num_nodes, 0);
}

void CheckpointStore::put(net::NodeId node, Snapshot snapshot) {
  snapshot.seal();
  slots_[node] = std::move(snapshot);
  present_[node] = 1;
}

const Snapshot* CheckpointStore::latest(net::NodeId node) const {
  if (node >= slots_.size() || present_[node] == 0) return nullptr;
  return &slots_[node];
}

std::size_t CheckpointStore::stored() const {
  std::size_t count = 0;
  for (unsigned char p : present_) count += p;
  return count;
}

}  // namespace qcongest::recover
