#include "core/prefix_table.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace bsvc {

namespace {
// insert_all's per-cell fill counts. Thread-local so a steady-state
// UPDATEPREFIXTABLE allocates nothing once warm (the worker lanes are
// persistent threads and insert_all never re-enters itself).
std::vector<std::uint16_t>& fill_scratch() {
  thread_local std::vector<std::uint16_t> fill;
  return fill;
}
}  // namespace

PrefixTable::PrefixTable(NodeId own, DigitConfig digits, int k)
    : own_(own),
      digits_(digits),
      k_(k),
      rows_(digits.num_digits<NodeId>()),
      arena_(&own_arena_) {
  digits_.validate<NodeId>();
  BSVC_CHECK(k_ >= 1);
}

PrefixTable::PrefixTable(NodeId own, DigitConfig digits, int k, DescriptorArena* arena)
    : own_(own),
      digits_(digits),
      k_(k),
      rows_(digits.num_digits<NodeId>()),
      arena_(arena) {
  digits_.validate<NodeId>();
  BSVC_CHECK(k_ >= 1);
  BSVC_CHECK(arena != nullptr);
}

void PrefixTable::copy_from(const PrefixTable& other) {
  own_ = other.own_;
  digits_ = other.digits_;
  k_ = other.k_;
  rows_ = other.rows_;
  size_ = other.size_;
  std::copy_n(other.ids(), other.size_, ids());
  std::copy_n(other.addrs(), other.size_, addrs());
}

PrefixTable::PrefixTable(const PrefixTable& other)
    : own_(other.own_),
      digits_(other.digits_),
      k_(other.k_),
      rows_(other.rows_),
      arena_(&own_arena_),
      block_(arena_->allocate(other.block_.cap)) {
  copy_from(other);
}

PrefixTable& PrefixTable::operator=(const PrefixTable& other) {
  if (this == &other) return *this;
  // Copies always land in the private arena (see LeafSet::operator=).
  own_arena_.reset();
  arena_ = &own_arena_;
  block_ = arena_->allocate(other.block_.cap);
  copy_from(other);
  return *this;
}

PrefixTable::PrefixTable(PrefixTable&& other) noexcept
    : own_(other.own_),
      digits_(other.digits_),
      k_(other.k_),
      rows_(other.rows_),
      own_arena_(std::move(other.own_arena_)),
      arena_(other.arena_ == &other.own_arena_ ? &own_arena_ : other.arena_),
      block_(other.block_),
      size_(other.size_) {
  other.arena_ = &other.own_arena_;
  other.block_ = {};
  other.size_ = 0;
}

PrefixTable& PrefixTable::operator=(PrefixTable&& other) noexcept {
  if (this == &other) return *this;
  own_ = other.own_;
  digits_ = other.digits_;
  k_ = other.k_;
  rows_ = other.rows_;
  own_arena_ = std::move(other.own_arena_);
  arena_ = other.arena_ == &other.own_arena_ ? &own_arena_ : other.arena_;
  block_ = other.block_;
  size_ = other.size_;
  other.arena_ = &other.own_arena_;
  other.block_ = {};
  other.size_ = 0;
  return *this;
}

PrefixTable::Cell PrefixTable::cell_of(NodeId id) const {
  BSVC_CHECK_MSG(id != own_, "cell_of is undefined for the own ID");
  const int row = common_prefix_digits(own_, id, digits_);
  return {row, digit(id, row, digits_)};
}

void PrefixTable::ensure_capacity(std::uint32_t need) {
  if (need <= block_.cap) return;
  std::uint32_t new_cap = block_.cap == 0 ? 16 : block_.cap * 2;
  while (new_cap < need) new_cap *= 2;
  arena_->grow(block_, new_cap, size_);
}

bool PrefixTable::place(const NodeDescriptor& d, std::size_t first, std::size_t last) {
  const NodeId* ids_p = ids();
  const std::size_t pos = static_cast<std::size_t>(
      std::lower_bound(ids_p + first, ids_p + last, d.id) - ids_p);
  if (pos != last && ids_p[pos] == d.id) return false;
  ensure_capacity(size_ + 1);
  NodeId* mut_ids = ids();
  Address* mut_addrs = addrs();
  std::copy_backward(mut_ids + pos, mut_ids + size_, mut_ids + size_ + 1);
  std::copy_backward(mut_addrs + pos, mut_addrs + size_, mut_addrs + size_ + 1);
  mut_ids[pos] = d.id;
  mut_addrs[pos] = d.addr;
  ++size_;
  return true;
}

bool PrefixTable::insert(const NodeDescriptor& d) {
  if (d.id == own_ || d.addr == kNullAddress) return false;
  const Cell c = cell_of(d.id);
  const auto [first, last] = cell_range(c.row, c.col);
  if (last - first >= static_cast<std::size_t>(k_)) return false;
  return place(d, first, last);
}

std::size_t PrefixTable::insert_all(std::span<const NodeDescriptor> ds) {
  // Per-cell fill counts from one pass over the id-sorted run, so a
  // candidate for a full cell is rejected in O(1); only a candidate that may
  // be inserted pays a binary search (which also detects duplicates).
  std::vector<std::uint16_t>& fill = fill_scratch();
  const auto radix = static_cast<std::size_t>(digits_.radix());
  const auto cell_index = [&](NodeId id) {
    const Cell c = cell_of(id);
    return static_cast<std::size_t>(c.row) * radix + static_cast<std::size_t>(c.col);
  };
  fill.assign(static_cast<std::size_t>(rows_) * radix, 0);
  const NodeId* table = ids();
  for (std::uint32_t i = 0; i < size_; ++i) ++fill[cell_index(table[i])];

  std::size_t added = 0;
  for (const auto& d : ds) {
    if (d.id == own_ || d.addr == kNullAddress) continue;
    std::uint16_t& count = fill[cell_index(d.id)];
    if (count >= k_ || !place(d, 0, size_)) continue;
    ++count;
    ++added;
  }
  return added;
}

bool PrefixTable::remove(NodeId id) {
  NodeId* ids_p = ids();
  const std::size_t pos =
      static_cast<std::size_t>(std::lower_bound(ids_p, ids_p + size_, id) - ids_p);
  if (pos == size_ || ids_p[pos] != id) return false;
  Address* addrs_p = addrs();
  std::copy(ids_p + pos + 1, ids_p + size_, ids_p + pos);
  std::copy(addrs_p + pos + 1, addrs_p + size_, addrs_p + pos);
  --size_;
  return true;
}

std::size_t PrefixTable::cell_count(int row, int col) const {
  const auto [first, last] = cell_range(row, col);
  return last - first;
}

DescriptorView PrefixTable::cell(int row, int col) const {
  const auto [first, last] = cell_range(row, col);
  return {ids() + first, addrs() + first, last - first};
}

void PrefixTable::append_in_ring_order(NodeId from, DescriptorList& out) const {
  const NodeId* ids_p = ids();
  const Address* addrs_p = addrs();
  const auto first =
      static_cast<std::size_t>(std::lower_bound(ids_p, ids_p + size_, from) - ids_p);
  for (std::size_t i = first; i < size_; ++i) out.push_back({ids_p[i], addrs_p[i]});
  for (std::size_t i = 0; i < first; ++i) out.push_back({ids_p[i], addrs_p[i]});
}

bool PrefixTable::contains(NodeId id) const {
  const NodeId* ids_p = ids();
  const std::size_t pos =
      static_cast<std::size_t>(std::lower_bound(ids_p, ids_p + size_, id) - ids_p);
  return pos != size_ && ids_p[pos] == id;
}

std::pair<std::size_t, std::size_t> PrefixTable::cell_range(int row, int col) const {
  BSVC_CHECK(row >= 0 && row < rows_);
  BSVC_CHECK(col >= 0 && col < digits_.radix());
  // (row, own digit) is not a cell: that interval belongs to deeper rows.
  BSVC_CHECK_MSG(col != digit(own_, row, digits_), "queried the own-digit column");
  const NodeId lo = prefix_range_lo(own_, row, col, digits_);
  const NodeId hi = prefix_range_hi(own_, row, col, digits_);
  const NodeId* ids_p = ids();
  const std::size_t first =
      static_cast<std::size_t>(std::lower_bound(ids_p, ids_p + size_, lo) - ids_p);
  // hi == 0 means the range runs to the top of the ID space.
  const std::size_t last =
      hi == 0 ? size_
              : static_cast<std::size_t>(
                    std::lower_bound(ids_p + first, ids_p + size_, hi) - ids_p);
  return {first, last};
}

}  // namespace bsvc
