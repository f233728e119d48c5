#include "core/leaf_set.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace bsvc {

namespace {
// UPDATELEAFSET staging buffer. Thread-local so the steady-state rebuild
// allocates nothing once warm; safe because the sharded engine's worker
// lanes are persistent threads and update() never re-enters itself.
std::vector<NodeDescriptor>& candidate_scratch() {
  thread_local std::vector<NodeDescriptor> candidates;
  return candidates;
}
}  // namespace

LeafSet::LeafSet(NodeId own, std::size_t capacity)
    : own_(own),
      capacity_(capacity),
      arena_(&own_arena_),
      block_(arena_->allocate(static_cast<std::uint32_t>(capacity))) {
  BSVC_CHECK(capacity >= 2);
}

LeafSet::LeafSet(NodeId own, std::size_t capacity, DescriptorArena* arena)
    : own_(own),
      capacity_(capacity),
      arena_(arena),
      block_(arena_->allocate(static_cast<std::uint32_t>(capacity))) {
  BSVC_CHECK(capacity >= 2);
  BSVC_CHECK(arena != nullptr);
}

void LeafSet::copy_from(const LeafSet& other) {
  own_ = other.own_;
  capacity_ = other.capacity_;
  succ_count_ = other.succ_count_;
  pred_count_ = other.pred_count_;
  std::copy_n(other.ids(), other.size(), ids());
  std::copy_n(other.addrs(), other.size(), addrs());
}

LeafSet::LeafSet(const LeafSet& other)
    : own_(other.own_),
      capacity_(other.capacity_),
      arena_(&own_arena_),
      block_(arena_->allocate(static_cast<std::uint32_t>(other.capacity_))) {
  copy_from(other);
}

LeafSet& LeafSet::operator=(const LeafSet& other) {
  if (this == &other) return *this;
  // Copies always land in the private arena: an externally-backed set's
  // block capacity is tied to its own `capacity`, not the source's.
  own_arena_.reset();
  arena_ = &own_arena_;
  block_ = arena_->allocate(static_cast<std::uint32_t>(other.capacity_));
  copy_from(other);
  return *this;
}

LeafSet::LeafSet(LeafSet&& other) noexcept
    : own_(other.own_),
      capacity_(other.capacity_),
      own_arena_(std::move(other.own_arena_)),
      arena_(other.arena_ == &other.own_arena_ ? &own_arena_ : other.arena_),
      block_(other.block_),
      succ_count_(other.succ_count_),
      pred_count_(other.pred_count_) {
  other.arena_ = &other.own_arena_;
  other.block_ = {};
  other.succ_count_ = 0;
  other.pred_count_ = 0;
}

LeafSet& LeafSet::operator=(LeafSet&& other) noexcept {
  if (this == &other) return *this;
  own_ = other.own_;
  capacity_ = other.capacity_;
  own_arena_ = std::move(other.own_arena_);
  arena_ = other.arena_ == &other.own_arena_ ? &own_arena_ : other.arena_;
  block_ = other.block_;
  succ_count_ = other.succ_count_;
  pred_count_ = other.pred_count_;
  other.arena_ = &other.own_arena_;
  other.block_ = {};
  other.succ_count_ = 0;
  other.pred_count_ = 0;
  return *this;
}

void LeafSet::update(std::span<const NodeDescriptor> incoming) {
  // Merge current content and the parameter set, then rebuild both sides.
  // A full set first drops incoming descriptors that cannot be selected. If
  // one side holds at most c/2 entries, the rebuild keeps at least that many
  // there (held entries stay candidates), so the other side cannot grow past
  // its held count: nothing beyond its farthest held entry can enter. Equal
  // distance means the same ID and still passes (the same-ID rule).
  auto& candidates = candidate_scratch();
  candidates.clear();
  const std::size_t n = size();
  const NodeId* id = ids();
  const Address* addr = addrs();
  for (std::size_t i = 0; i < n; ++i) candidates.push_back({id[i], addr[i]});
  NodeId succ_bound = ~NodeId{0};  // farthest successor distance that may enter
  NodeId pred_bound = ~NodeId{0};
  if (n == capacity_) {
    const std::size_t half = capacity_ / 2;
    if (pred_count_ <= half) succ_bound = successor_distance(own_, id[succ_count_ - 1]);
    if (succ_count_ <= half) pred_bound = predecessor_distance(own_, id[n - 1]);
  }
  for (const auto& d : incoming) {
    if (d.id == own_ || d.addr == kNullAddress) continue;
    const NodeId sd = successor_distance(own_, d.id);
    const NodeId pd = predecessor_distance(own_, d.id);
    if (sd <= pd ? sd <= succ_bound : pd <= pred_bound) candidates.push_back(d);
  }
  rebuild(candidates);
}

bool LeafSet::remove(NodeId id) {
  NodeId* ids_p = ids();
  Address* addrs_p = addrs();
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    if (ids_p[i] != id) continue;
    std::copy(ids_p + i + 1, ids_p + n, ids_p + i);
    std::copy(addrs_p + i + 1, addrs_p + n, addrs_p + i);
    if (i < succ_count_) {
      --succ_count_;
    } else {
      --pred_count_;
    }
    return true;
  }
  return false;
}

void LeafSet::rebuild(std::vector<NodeDescriptor>& candidates) {
  // One ordering pass: by successor distance from the own ID, equal IDs by
  // address. Duplicates end up adjacent with the lowest address first (the
  // same-ID rule), successors lead in increasing distance, and predecessors
  // follow in decreasing predecessor distance — so the closest predecessor
  // is the last element.
  std::sort(candidates.begin(), candidates.end(),
            [own = own_](const NodeDescriptor& a, const NodeDescriptor& b) {
              const NodeId da = successor_distance(own, a.id);
              const NodeId db = successor_distance(own, b.id);
              return da != db ? da < db : a.addr < b.addr;
            });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const NodeDescriptor& a, const NodeDescriptor& b) {
                                 return a.id == b.id;
                               }),
                   candidates.end());
  const std::size_t n = candidates.size();
  const auto split = static_cast<std::size_t>(
      std::partition_point(candidates.begin(), candidates.end(),
                           [own = own_](const NodeDescriptor& d) {
                             return is_successor(own, d.id);
                           }) -
      candidates.begin());
  const std::size_t n_succ = split;
  const std::size_t n_pred = n - split;

  // Keep c/2 closest per direction; spare capacity from a short side tops up
  // the other ("filled with the closest elements in the other direction").
  const std::size_t half = capacity_ / 2;
  std::size_t take_s = std::min(n_succ, half);
  std::size_t take_p = std::min(n_pred, half);
  std::size_t spare = capacity_ - take_s - take_p;
  const std::size_t extra_s = std::min(n_succ - take_s, spare);
  take_s += extra_s;
  spare -= extra_s;
  take_p += std::min(n_pred - take_p, spare);

  NodeId* ids_p = ids();
  Address* addrs_p = addrs();
  for (std::size_t i = 0; i < take_s; ++i) {
    ids_p[i] = candidates[i].id;
    addrs_p[i] = candidates[i].addr;
  }
  for (std::size_t i = 0; i < take_p; ++i) {
    ids_p[take_s + i] = candidates[n - 1 - i].id;
    addrs_p[take_s + i] = candidates[n - 1 - i].addr;
  }
  succ_count_ = static_cast<std::uint32_t>(take_s);
  pred_count_ = static_cast<std::uint32_t>(take_p);
}

DescriptorList LeafSet::all() const {
  DescriptorList out;
  out.reserve(size());
  const DescriptorView view = all_view();
  out.insert(out.end(), view.begin(), view.end());
  return out;
}

DescriptorList LeafSet::sorted_by_ring_distance() const {
  DescriptorList out = all();
  std::sort(out.begin(), out.end(), [this](const NodeDescriptor& a, const NodeDescriptor& b) {
    return closer_on_ring(own_, a.id, b.id);
  });
  return out;
}

void LeafSet::append_in_ring_order(NodeId from, DescriptorList& out) const {
  const NodeId* ids_p = ids();
  const Address* addrs_p = addrs();
  const std::size_t n = size();
  // Own-order position i: successors first, then predecessors from the
  // farthest to the closest.
  const auto at = [&](std::size_t i) {
    const std::size_t slot = i < succ_count_ ? i : succ_count_ + (n - 1 - i);
    return NodeDescriptor{ids_p[slot], addrs_p[slot]};
  };
  const NodeId start = successor_distance(own_, from);
  std::size_t first = 0;
  while (first < n && successor_distance(own_, at(first).id) < start) ++first;
  for (std::size_t i = first; i < n; ++i) out.push_back(at(i));
  for (std::size_t i = 0; i < first; ++i) out.push_back(at(i));
}

bool LeafSet::contains(NodeId id) const {
  const NodeId* ids_p = ids();
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    if (ids_p[i] == id) return true;
  }
  return false;
}

}  // namespace bsvc
