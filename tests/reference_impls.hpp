// Reference implementations for the differential tests: straightforward
// vector-of-descriptor versions of the leaf set, the prefix table,
// CREATEMESSAGE's ring and prefix parts, and the Newscast merge, written the
// plain way (one sort per direction, a binary-searched cell range per
// insert, a find per merged entry). The production code must match them
// element for element, in order.
//
// Where one ID arrives bound to several addresses, these references keep
// whichever binding std::sort leaves first; tests compare such inputs
// against the explicit same-ID rule instead (docs/protocol.md §2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "id/descriptor.hpp"
#include "id/digits.hpp"
#include "id/ring.hpp"
#include "sampling/newscast.hpp"

namespace bsvc::ref {

/// Keeps `take_s` successors and `take_p` predecessors out of `succ` and
/// `pred` candidates: c/2 per direction, a short side's spare capacity
/// topping up the other.
inline void leaf_cut(std::size_t capacity, std::size_t n_succ, std::size_t n_pred,
                     std::size_t& take_s, std::size_t& take_p) {
  const std::size_t half = capacity / 2;
  take_s = std::min(n_succ, half);
  take_p = std::min(n_pred, half);
  std::size_t spare = capacity - take_s - take_p;
  const std::size_t extra_s = std::min(n_succ - take_s, spare);
  take_s += extra_s;
  spare -= extra_s;
  take_p += std::min(n_pred - take_p, spare);
}

/// Dedupes by ID, then splits into successors and predecessors of `pivot`
/// (the pivot itself dropped), each sorted by its directional distance.
inline void split_by_direction(std::vector<NodeDescriptor> candidates, NodeId pivot,
                               std::vector<NodeDescriptor>& succ,
                               std::vector<NodeDescriptor>& pred) {
  std::sort(candidates.begin(), candidates.end(),
            [](const NodeDescriptor& a, const NodeDescriptor& b) { return a.id < b.id; });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const NodeDescriptor& a, const NodeDescriptor& b) {
                                 return a.id == b.id;
                               }),
                   candidates.end());
  succ.clear();
  pred.clear();
  for (const auto& d : candidates) {
    if (d.id == pivot) continue;
    (is_successor(pivot, d.id) ? succ : pred).push_back(d);
  }
  std::sort(succ.begin(), succ.end(), [pivot](const NodeDescriptor& a, const NodeDescriptor& b) {
    return successor_distance(pivot, a.id) < successor_distance(pivot, b.id);
  });
  std::sort(pred.begin(), pred.end(), [pivot](const NodeDescriptor& a, const NodeDescriptor& b) {
    return predecessor_distance(pivot, a.id) < predecessor_distance(pivot, b.id);
  });
}

class LeafSet {
 public:
  LeafSet(NodeId own, std::size_t capacity) : own_(own), capacity_(capacity) {}

  void update(const std::vector<NodeDescriptor>& incoming) {
    std::vector<NodeDescriptor> candidates = succ_;
    candidates.insert(candidates.end(), pred_.begin(), pred_.end());
    for (const auto& d : incoming) {
      if (d.id == own_ || d.addr == kNullAddress) continue;
      candidates.push_back(d);
    }
    std::vector<NodeDescriptor> succ;
    std::vector<NodeDescriptor> pred;
    split_by_direction(std::move(candidates), own_, succ, pred);
    std::size_t take_s = 0;
    std::size_t take_p = 0;
    leaf_cut(capacity_, succ.size(), pred.size(), take_s, take_p);
    succ.resize(take_s);
    pred.resize(take_p);
    succ_ = std::move(succ);
    pred_ = std::move(pred);
  }

  bool remove(NodeId id) {
    for (auto* side : {&succ_, &pred_}) {
      for (auto it = side->begin(); it != side->end(); ++it) {
        if (it->id == id) {
          side->erase(it);
          return true;
        }
      }
    }
    return false;
  }

  const std::vector<NodeDescriptor>& successors() const { return succ_; }
  const std::vector<NodeDescriptor>& predecessors() const { return pred_; }

 private:
  NodeId own_;
  std::size_t capacity_;
  std::vector<NodeDescriptor> succ_;
  std::vector<NodeDescriptor> pred_;
};

class PrefixTable {
 public:
  PrefixTable(NodeId own, DigitConfig digits, int k) : own_(own), digits_(digits), k_(k) {}

  bool insert(const NodeDescriptor& d) {
    if (d.id == own_ || d.addr == kNullAddress) return false;
    const int row = common_prefix_digits(own_, d.id, digits_);
    const int col = digit(d.id, row, digits_);
    const NodeId lo = prefix_range_lo(own_, row, col, digits_);
    const NodeId hi = prefix_range_hi(own_, row, col, digits_);
    const auto by_id = [](const NodeDescriptor& a, NodeId id) { return a.id < id; };
    const auto first = std::lower_bound(entries_.begin(), entries_.end(), lo, by_id);
    const auto last =
        hi == 0 ? entries_.end() : std::lower_bound(first, entries_.end(), hi, by_id);
    if (last - first >= k_) return false;
    const auto pos = std::lower_bound(first, last, d.id, by_id);
    if (pos != last && pos->id == d.id) return false;
    entries_.insert(pos, d);
    return true;
  }

  std::size_t insert_all(const std::vector<NodeDescriptor>& ds) {
    std::size_t added = 0;
    for (const auto& d : ds) added += insert(d) ? 1 : 0;
    return added;
  }

  bool remove(NodeId id) {
    const auto pos = std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const NodeDescriptor& a, NodeId key) { return a.id < key; });
    if (pos == entries_.end() || pos->id != id) return false;
    entries_.erase(pos);
    return true;
  }

  const std::vector<NodeDescriptor>& entries() const { return entries_; }

 private:
  NodeId own_;
  DigitConfig digits_;
  int k_;
  std::vector<NodeDescriptor> entries_;
};

struct MessageParts {
  std::vector<NodeDescriptor> ring;
  std::vector<NodeDescriptor> prefix;
};

/// CREATEMESSAGE(peer) over a given union of local knowledge.
inline MessageParts create_message(const std::vector<NodeDescriptor>& un, NodeId peer,
                                   const BootstrapConfig& cfg) {
  std::vector<NodeDescriptor> succ;
  std::vector<NodeDescriptor> pred;
  split_by_direction(un, peer, succ, pred);
  std::size_t take_s = 0;
  std::size_t take_p = 0;
  leaf_cut(cfg.c, succ.size(), pred.size(), take_s, take_p);
  MessageParts out;
  out.ring.assign(succ.begin(), succ.begin() + static_cast<std::ptrdiff_t>(take_s));
  out.ring.insert(out.ring.end(), pred.begin(), pred.begin() + static_cast<std::ptrdiff_t>(take_p));
  if (!cfg.send_prefix_part) return out;
  const int radix = cfg.digits.radix();
  std::vector<int> fill(static_cast<std::size_t>(cfg.digits.num_digits<NodeId>() * radix), 0);
  const auto consider = [&](const NodeDescriptor& d) {
    const int i = common_prefix_digits(peer, d.id, cfg.digits);
    int& f = fill[static_cast<std::size_t>(i * radix + digit(d.id, i, cfg.digits))];
    if (f >= cfg.k) return;
    ++f;
    out.prefix.push_back(d);
  };
  for (std::size_t i = take_s; i < succ.size(); ++i) consider(succ[i]);
  for (std::size_t i = take_p; i < pred.size(); ++i) consider(pred[i]);
  return out;
}

/// The Newscast merge: per address keep the freshest entry (ties keep the
/// one seen first), then the view_size freshest, ties by address. Returns
/// the number of entries the hardened filter rejected.
inline std::uint64_t newscast_merge(std::vector<TimestampedDescriptor>& view,
                                    const std::vector<TimestampedDescriptor>& incoming,
                                    SimTime now, Address self, const NewscastConfig& cfg) {
  std::vector<TimestampedDescriptor> merged = view;
  std::size_t accepted = 0;
  std::uint64_t rejected = 0;
  for (const auto& entry : incoming) {
    if (entry.descriptor.addr == self || entry.descriptor.addr == kNullAddress) continue;
    if (cfg.harden) {
      if (entry.timestamp > now || accepted >= cfg.view_size + 1) {
        ++rejected;
        continue;
      }
      ++accepted;
    }
    auto it = std::find_if(merged.begin(), merged.end(), [&](const TimestampedDescriptor& e) {
      return e.descriptor.addr == entry.descriptor.addr;
    });
    if (it == merged.end()) {
      merged.push_back(entry);
    } else if (entry.timestamp > it->timestamp) {
      *it = entry;
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const TimestampedDescriptor& a, const TimestampedDescriptor& b) {
              if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
              return a.descriptor.addr < b.descriptor.addr;
            });
  if (merged.size() > cfg.view_size) merged.resize(cfg.view_size);
  view = std::move(merged);
  return rejected;
}

}  // namespace bsvc::ref
