// The prefix table (paper §4).
//
// For every pair (i, j) — i the length in digits of the longest common
// prefix with the own ID, j the first differing digit — the table holds up
// to k descriptors. Cell (i, j) therefore covers exactly the IDs in the
// half-open interval [prefix_range_lo, prefix_range_hi): the first i digits
// equal the own ID's, digit i equals j (≠ own digit i). Those intervals are
// disjoint, so storing all entries in one ID-sorted run keeps every cell
// contiguous and memory compact: a cell lookup is two binary searches, and
// a bulk update counts every cell in one pass over the run instead.
//
// Storage is struct-of-arrays in a DescriptorArena block: the binary
// searches walk a dense NodeId lane (8 bytes/element, no interleaved
// addresses), and in steady state an insert is a memmove within the block —
// growth doubles the block at the arena tip without touching the allocator
// once the slabs are warm. entries() hands out a DescriptorView; views are
// invalidated by any mutation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/arena.hpp"
#include "core/config.hpp"
#include "id/descriptor.hpp"
#include "id/digits.hpp"

namespace bsvc {

class PrefixTable {
 public:
  /// Coordinates of a cell.
  struct Cell {
    int row = 0;  // common prefix length i
    int col = 0;  // first differing digit j
  };

  /// Self-backed: entries live in a private arena.
  PrefixTable(NodeId own, DigitConfig digits, int k);
  /// Entries live in `arena` (not owned; must outlive the table).
  PrefixTable(NodeId own, DigitConfig digits, int k, DescriptorArena* arena);

  PrefixTable(const PrefixTable& other);
  PrefixTable& operator=(const PrefixTable& other);
  PrefixTable(PrefixTable&& other) noexcept;
  PrefixTable& operator=(PrefixTable&& other) noexcept;
  ~PrefixTable() = default;

  /// The cell a foreign ID falls into. Precondition: id != own ID.
  Cell cell_of(NodeId id) const;

  /// UPDATEPREFIXTABLE for one descriptor: fills a missing entry if the cell
  /// has free capacity and the ID is not already present. Returns whether
  /// the table changed. Own-ID and null-address descriptors are ignored.
  bool insert(const NodeDescriptor& d);

  /// Bulk UPDATEPREFIXTABLE: insert() for each descriptor in order, but
  /// with every cell's fill counted in one pass over the table first, so a
  /// candidate for a full cell costs no search. Returns the number of
  /// entries added.
  std::size_t insert_all(std::span<const NodeDescriptor> ds);

  /// Removes an entry by ID (dead-peer cleanup). Returns whether present.
  bool remove(NodeId id);

  /// Number of entries currently in cell (row, col).
  std::size_t cell_count(int row, int col) const;

  /// The entries of one cell (at most k), sorted by ID. Zero-copy; like
  /// entries(), the view is invalidated by any mutation.
  DescriptorView cell(int row, int col) const;

  /// All entries, sorted by ID. This is the view CREATEMESSAGE unions into
  /// its candidate set.
  DescriptorView entries() const { return {ids(), addrs(), size_}; }

  /// Appends every entry to `out` in increasing successor distance from
  /// `from`, without sorting: the ID-sorted run from the first ID >= from,
  /// then the IDs that wrap around.
  void append_in_ring_order(NodeId from, DescriptorList& out) const;

  /// Total number of filled entries.
  std::size_t filled() const { return size_; }

  bool contains(NodeId id) const;

  NodeId own_id() const { return own_; }
  const DigitConfig& digits() const { return digits_; }
  int k() const { return k_; }
  int rows() const { return rows_; }

 private:
  /// [first, last) index range of a cell in the sorted run.
  std::pair<std::size_t, std::size_t> cell_range(int row, int col) const;
  /// Inserts `d` at its sorted position, searched within [first, last),
  /// unless its ID is already there. The caller checked the cell's fill.
  bool place(const NodeDescriptor& d, std::size_t first, std::size_t last);
  void ensure_capacity(std::uint32_t need);
  void copy_from(const PrefixTable& other);

  const NodeId* ids() const { return arena_->ids(block_); }
  const Address* addrs() const { return arena_->addrs(block_); }
  NodeId* ids() { return arena_->ids(block_); }
  Address* addrs() { return arena_->addrs(block_); }

  NodeId own_;
  DigitConfig digits_;
  int k_;
  int rows_;
  DescriptorArena own_arena_;  // backs the block when no external arena given
  DescriptorArena* arena_;
  DescriptorArena::Block block_;  // sorted-by-id run of size_ entries
  std::uint32_t size_ = 0;
};

}  // namespace bsvc
