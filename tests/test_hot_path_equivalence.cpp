// Differential tests for the per-exchange hot path: LeafSet::update,
// PrefixTable::insert_all, both tables' append_in_ring_order, CREATEMESSAGE's
// ring and prefix parts and the Newscast merge must match the plain
// reference versions in tests/reference_impls.hpp element for element, in
// order, over seeded random operation sequences. The inputs cover unsorted
// and flooded lists, duplicate addresses with equal timestamps, future
// timestamps under harden, and empty or one-sided leaf sets. Inputs that
// bind one ID to several addresses are checked against the explicit same-ID
// rule (the lowest address wins) rather than against the references, whose
// choice there is whatever std::sort leaves first. UPDATELEAFSET's edge
// bound is also checked against an unbounded sort-and-select that applies
// the same-ID rule itself, and pastry_next_hop against the
// filter-then-min_element formulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/bootstrap.hpp"
#include "core/leaf_set.hpp"
#include "core/prefix_table.hpp"
#include "overlay/pastry_router.hpp"
#include "sampling/newscast.hpp"
#include "sim/engine.hpp"
#include "tests/reference_impls.hpp"

namespace bsvc {
namespace {

constexpr std::uint64_t kSeeds[] = {3, 29, 2024};

// --- inputs ------------------------------------------------------------------

enum class Shape { Mixed, NearOwn, SuccessorsOnly, PredecessorsOnly, Conflicting };
constexpr Shape kConsistentShapes[] = {Shape::Mixed, Shape::NearOwn, Shape::SuccessorsOnly,
                                       Shape::PredecessorsOnly};

/// `n` descriptors with addresses 1..n. Every shape but Conflicting binds
/// each ID to one address; Conflicting draws IDs from n/3 values, so most
/// IDs come with two or more addresses.
std::vector<NodeDescriptor> make_pool(Shape shape, NodeId own, std::size_t n, Rng& rng) {
  std::vector<NodeId> conflict_ids;
  for (std::size_t i = 0; i < n / 3; ++i) conflict_ids.push_back(rng.next_u64());
  std::set<NodeId> used{own};
  std::vector<NodeDescriptor> pool;
  while (pool.size() < n) {
    NodeId id = 0;
    const NodeId far = rng.next_u64() >> 2;  // well inside one half of the ring
    switch (shape) {
      case Shape::Mixed:
        id = rng.next_u64();
        break;
      case Shape::NearOwn: {
        const NodeId off = rng.next_u64() >> (4 + rng.below(48));
        id = rng.chance(0.5) ? own + off : own - off;
        break;
      }
      case Shape::SuccessorsOnly:
        id = own + 1 + far;
        break;
      case Shape::PredecessorsOnly:
        id = own - 1 - far;
        break;
      case Shape::Conflicting:
        id = conflict_ids[rng.below(conflict_ids.size())];
        pool.push_back({id, static_cast<Address>(pool.size() + 1)});
        continue;
    }
    if (!used.insert(id).second) continue;
    pool.push_back({id, static_cast<Address>(pool.size() + 1)});
  }
  return pool;
}

/// An unsorted batch of pool entries (repeats likely), flooded one time in
/// ten, sometimes carrying the own ID or a null address.
std::vector<NodeDescriptor> make_batch(const std::vector<NodeDescriptor>& pool, NodeId own,
                                       Rng& rng) {
  const std::size_t n = rng.chance(0.1) ? 150 + rng.below(250) : rng.below(41);
  std::vector<NodeDescriptor> batch;
  for (std::size_t i = 0; i < n; ++i) batch.push_back(pool[rng.below(pool.size())]);
  if (rng.chance(0.1)) batch.push_back({own, 1});
  if (rng.chance(0.1)) batch.push_back({pool[0].id, kNullAddress});
  return batch;
}

std::vector<NodeId> ids_of(const std::vector<NodeDescriptor>& ds) {
  std::vector<NodeId> out;
  for (const auto& d : ds) out.push_back(d.id);
  return out;
}

template <typename Range>
std::vector<NodeDescriptor> to_vector(const Range& r) {
  return {r.begin(), r.end()};
}

/// `entries` (unique IDs) sorted by successor distance from `from`: what
/// append_in_ring_order must produce without sorting.
std::vector<NodeDescriptor> by_distance_from(NodeId from, std::vector<NodeDescriptor> entries) {
  std::sort(entries.begin(), entries.end(), [from](const auto& a, const auto& b) {
    return successor_distance(from, a.id) < successor_distance(from, b.id);
  });
  return entries;
}

/// The same-ID rule over a set of candidates: ID -> lowest address.
std::map<NodeId, Address> lowest_address(const std::vector<NodeDescriptor>& candidates) {
  std::map<NodeId, Address> best;
  for (const auto& d : candidates) {
    const auto [it, fresh] = best.try_emplace(d.id, d.addr);
    if (!fresh) it->second = std::min(it->second, d.addr);
  }
  return best;
}

void expect_lowest_addresses(const std::vector<NodeDescriptor>& kept,
                             const std::map<NodeId, Address>& rule, const char* what,
                             std::size_t step) {
  for (const auto& d : kept) {
    ASSERT_TRUE(rule.count(d.id)) << what << " step " << step;
    EXPECT_EQ(d.addr, rule.at(d.id)) << what << " id " << d.id << " step " << step;
  }
}

// --- LeafSet::update -----------------------------------------------------------

TEST(HotPathEquivalence, LeafSetUpdateMatchesReference) {
  for (const std::uint64_t seed : kSeeds) {
    for (const Shape shape : kConsistentShapes) {
      Rng rng(seed * 7 + static_cast<std::uint64_t>(shape));
      const NodeId own = rng.next_u64();
      const std::size_t c = 2 + rng.below(23);  // odd capacities float a slot
      const auto pool = make_pool(shape, own, 300, rng);
      LeafSet ls(own, c);
      ref::LeafSet want(own, c);
      for (std::size_t step = 0; step < 250; ++step) {
        const auto op = rng.below(10);
        if (op < 7) {
          const auto batch = op == 0 ? std::vector<NodeDescriptor>{} : make_batch(pool, own, rng);
          ls.update(batch);
          want.update(batch);
        } else {
          const NodeId victim = pool[rng.below(pool.size())].id;
          EXPECT_EQ(ls.remove(victim), want.remove(victim)) << "step " << step;
        }
        ASSERT_EQ(to_vector(ls.successors()), want.successors())
            << "seed " << seed << " step " << step;
        ASSERT_EQ(to_vector(ls.predecessors()), want.predecessors())
            << "seed " << seed << " step " << step;
        const NodeId from = rng.chance(0.5) ? pool[rng.below(pool.size())].id : rng.next_u64();
        DescriptorList ring_order;
        ls.append_in_ring_order(from, ring_order);
        ASSERT_EQ(ring_order, by_distance_from(from, to_vector(ls.all_view()))) << "step " << step;
      }
    }
  }
}

TEST(HotPathEquivalence, LeafSetSameIdKeepsTheLowestAddress) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    const NodeId own = rng.next_u64();
    const std::size_t c = 2 + rng.below(23);
    const auto pool = make_pool(Shape::Conflicting, own, 300, rng);
    LeafSet ls(own, c);
    ref::LeafSet want(own, c);
    for (std::size_t step = 0; step < 400; ++step) {
      const auto batch = make_batch(pool, own, rng);
      std::vector<NodeDescriptor> offered = to_vector(ls.all_view());
      for (const auto& d : batch) {
        if (d.id != own && d.addr != kNullAddress) offered.push_back(d);
      }
      ls.update(batch);
      want.update(batch);
      // Which IDs survive does not depend on addresses; which address an ID
      // keeps is the rule's.
      ASSERT_EQ(ids_of(to_vector(ls.successors())), ids_of(want.successors())) << step;
      ASSERT_EQ(ids_of(to_vector(ls.predecessors())), ids_of(want.predecessors())) << step;
      expect_lowest_addresses(to_vector(ls.all_view()), lowest_address(offered), "leaf", step);
    }
  }
}

/// UPDATELEAFSET without the edge bound: every candidate (held and
/// incoming) sorted by successor distance with the same-ID rule applied
/// exactly, then cut c/2 per direction with the short side's spare topping
/// up the other. Returns successors then predecessors, each closest first.
std::pair<DescriptorList, DescriptorList> select_unbounded(NodeId own, std::size_t c,
                                                           DescriptorList candidates,
                                                           std::span<const NodeDescriptor> in) {
  for (const auto& d : in) {
    if (d.id != own && d.addr != kNullAddress) candidates.push_back(d);
  }
  std::sort(candidates.begin(), candidates.end(), [own](const auto& a, const auto& b) {
    const NodeId da = successor_distance(own, a.id);
    const NodeId db = successor_distance(own, b.id);
    return da != db ? da < db : a.addr < b.addr;
  });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const auto& a, const auto& b) { return a.id == b.id; }),
                   candidates.end());
  DescriptorList succ;
  DescriptorList pred;
  for (const auto& d : candidates) (is_successor(own, d.id) ? succ : pred).push_back(d);
  std::reverse(pred.begin(), pred.end());
  std::size_t take_s = 0;
  std::size_t take_p = 0;
  ref::leaf_cut(c, succ.size(), pred.size(), take_s, take_p);
  succ.resize(take_s);
  pred.resize(take_p);
  return {succ, pred};
}

TEST(HotPathEquivalence, LeafSetBoundedUpdateMatchesUnboundedSelection) {
  // Dense ID clusters on both sides of the own ID, so messages keep landing
  // just inside and just outside the edges of a full set.
  std::size_t bounded_cases = 0;
  for (const std::uint64_t seed : kSeeds) {
    for (const std::size_t c : {2u, 3u, 4u, 5u, 8u, 9u, 20u, 21u}) {
      Rng rng(seed * 131 + c);
      const NodeId own = rng.next_u64();
      // Predecessor-poor pools make one side short, so the other tops up.
      const std::size_t n_succ = 1 + rng.below(3 * c);
      const std::size_t n_pred = rng.chance(0.3) ? rng.below(c / 2 + 1) : 1 + rng.below(3 * c);
      std::vector<NodeId> pool;
      for (std::size_t i = 0; i < n_succ; ++i) pool.push_back(own + 1 + rng.below(1u << 12));
      for (std::size_t i = 0; i < n_pred; ++i) pool.push_back(own - 1 - rng.below(1u << 12));
      // One address per ID as a default; some messages rebind it below.
      const auto addr_of = [](NodeId id) { return static_cast<Address>(100 + (id & 0xFF)); };
      LeafSet ls(own, c);
      for (std::size_t step = 0; step < 300; ++step) {
        const DescriptorList held = to_vector(ls.all_view());
        if (rng.chance(0.1) && !held.empty()) {
          ls.remove(held[rng.below(held.size())].id);
        } else {
          DescriptorList msg;
          const std::size_t len = rng.chance(0.1) ? 109 : rng.below(2 * c + 1);
          for (std::size_t i = 0; i < len; ++i) {
            const NodeId id = pool[rng.below(pool.size())];
            msg.push_back({id, addr_of(id)});
            if (rng.chance(0.1)) msg.push_back(msg.back());  // duplicate inside the message
          }
          for (const auto& h : held) {
            // The held binding of an ID rebound to a lower or higher address,
            // and IDs one step beyond or inside each held entry.
            if (rng.chance(0.05)) msg.push_back({h.id, h.addr - 1});
            if (rng.chance(0.05)) msg.push_back({h.id, h.addr + 1});
            if (rng.chance(0.05)) msg.push_back({h.id + 1, addr_of(h.id + 1)});
            if (rng.chance(0.05)) msg.push_back({h.id - 1, addr_of(h.id - 1)});
          }
          if (rng.chance(0.1)) msg.push_back({own, 1});
          if (rng.chance(0.1)) msg.push_back({pool[0], kNullAddress});
          rng.shuffle(msg);
          // Does the bound skip anything in this case?
          if (held.size() == c) {
            const auto& succ = ls.successors();
            const auto& pred = ls.predecessors();
            for (const auto& d : msg) {
              if (d.id == own) continue;
              const bool beyond =
                  is_successor(own, d.id)
                      ? pred.size() <= c / 2 &&
                            successor_distance(own, d.id) > successor_distance(own, succ.back().id)
                      : succ.size() <= c / 2 && predecessor_distance(own, d.id) >
                                                    predecessor_distance(own, pred.back().id);
              if (beyond) {
                ++bounded_cases;
                break;
              }
            }
          }
          const auto [want_succ, want_pred] = select_unbounded(own, c, held, msg);
          ls.update(msg);
          ASSERT_EQ(to_vector(ls.successors()), want_succ)
              << "seed " << seed << " c " << c << " step " << step;
          ASSERT_EQ(to_vector(ls.predecessors()), want_pred)
              << "seed " << seed << " c " << c << " step " << step;
        }
      }
    }
  }
  // The bound did fire: these cases ran the skip path.
  EXPECT_GT(bounded_cases, 1000u);
}

// --- PrefixTable::insert_all ---------------------------------------------------

TEST(HotPathEquivalence, PrefixTableInsertAllMatchesReference) {
  for (const std::uint64_t seed : kSeeds) {
    for (const int b : {1, 2, 4, 8}) {
      for (const Shape shape : {Shape::Mixed, Shape::NearOwn, Shape::Conflicting}) {
        Rng rng(seed * 131 + static_cast<std::uint64_t>(b) * 7 + static_cast<std::uint64_t>(shape));
        const NodeId own = rng.next_u64();
        const DigitConfig digits{b};
        const int k = 1 + static_cast<int>(rng.below(4));
        const auto pool = make_pool(shape, own, 300, rng);
        PrefixTable pt(own, digits, k);
        ref::PrefixTable want(own, digits, k);
        for (std::size_t step = 0; step < 200; ++step) {
          const auto op = rng.below(10);
          if (op < 7) {
            const auto batch = make_batch(pool, own, rng);
            EXPECT_EQ(pt.insert_all(batch), want.insert_all(batch)) << "step " << step;
          } else if (op < 9) {
            const NodeId victim = rng.chance(0.7) && !want.entries().empty()
                                      ? want.entries()[rng.below(want.entries().size())].id
                                      : pool[rng.below(pool.size())].id;
            EXPECT_EQ(pt.remove(victim), want.remove(victim)) << "step " << step;
          } else {
            const auto& d = pool[rng.below(pool.size())];
            EXPECT_EQ(pt.insert(d), want.insert(d)) << "step " << step;
          }
          ASSERT_EQ(to_vector(pt.entries()), want.entries())
              << "seed " << seed << " b " << b << " step " << step;
          const NodeId from = rng.chance(0.5) ? pool[rng.below(pool.size())].id : rng.next_u64();
          DescriptorList ring_order;
          pt.append_in_ring_order(from, ring_order);
          ASSERT_EQ(ring_order, by_distance_from(from, want.entries())) << "step " << step;
        }
      }
    }
  }
}

// --- CREATEMESSAGE ---------------------------------------------------------------

/// Draws up to n pool entries (repeats allowed) and remembers the last draw,
/// so the reference can rebuild CREATEMESSAGE's union. With `silent_calls`
/// the first draws come back empty: the node starts with an empty leaf set.
class RecordingSampler final : public PeerSampler {
 public:
  RecordingSampler(std::vector<NodeDescriptor> pool, std::uint64_t seed, int silent_calls)
      : pool_(std::move(pool)), rng_(seed), silent_calls_(silent_calls) {}
  DescriptorList sample(std::size_t n) override {
    last.clear();
    if (silent_calls_ > 0) {
      --silent_calls_;
      return last;
    }
    const std::size_t m = rng_.below(n + 1);
    for (std::size_t i = 0; i < m; ++i) last.push_back(pool_[rng_.below(pool_.size())]);
    return last;
  }
  DescriptorList last;

 private:
  std::vector<NodeDescriptor> pool_;
  Rng rng_;
  int silent_calls_;
};

/// One BootstrapProtocol at address 0 among pool.size() idle nodes, on a
/// one-tick transport. All operations finish before the node's second
/// active step (t = Δ), so only the test changes its tables.
struct BootstrapHarness {
  std::unique_ptr<RecordingSampler> sampler;  // outlives the engine's protocols
  Engine engine;
  BootstrapProtocol* node = nullptr;

  BootstrapHarness(const BootstrapConfig& cfg, NodeId own,
                   const std::vector<NodeDescriptor>& pool, std::uint64_t seed,
                   int silent_calls)
      : sampler(std::make_unique<RecordingSampler>(pool, seed, silent_calls)),
        engine(seed, TransportConfig{.min_latency = 1, .max_latency = 1}) {
    const Address self = engine.add_node(own);
    for (std::size_t i = 0; i < pool.size(); ++i) engine.add_node(0x1000 + i);
    auto proto = std::make_unique<BootstrapProtocol>(cfg, sampler.get(), nullptr, 0);
    node = proto.get();
    engine.attach(self, std::move(proto));
    engine.start_node(self);
    engine.run_until(1);
  }

  void deliver(const NodeDescriptor& sender, const DescriptorList& ring,
               const DescriptorList& prefix) {
    engine.send_message(sender.addr, 0, 0,
                        std::make_unique<BootstrapMessage>(sender, ring, prefix, false));
    engine.run_until(engine.now() + 1);
  }
};

TEST(HotPathEquivalence, CreateMessageMatchesReference) {
  std::vector<BootstrapConfig> configs(5);
  configs[1].c = 7;
  configs[1].k = 1;
  configs[2].use_random_samples = false;
  configs[3].prefix_entries_in_union = false;
  configs[3].send_prefix_part = false;
  configs[4].c = 3;
  configs[4].k = 2;
  configs[4].cr = 5;
  configs[4].digits = DigitConfig{2};
  for (const std::uint64_t seed : kSeeds) {
    for (const Shape shape : {Shape::Mixed, Shape::NearOwn, Shape::SuccessorsOnly,
                              Shape::PredecessorsOnly, Shape::Conflicting}) {
      for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        const BootstrapConfig& cfg = configs[ci];
        Rng rng(seed * 1009 + static_cast<std::uint64_t>(shape) * 31 + ci);
        const NodeId own = rng.next_u64();
        const auto pool = make_pool(shape, own, 200, rng);
        BootstrapHarness h(cfg, own, pool, seed + ci, /*silent_calls=*/ci % 2 == 0 ? 2 : 0);
        const NodeDescriptor self = h.engine.descriptor_of(0);
        for (std::size_t step = 0; step < 120; ++step) {
          if (step % 2 == 1) {
            const NodeDescriptor sender = pool[rng.below(pool.size())];
            std::vector<NodeDescriptor> prefix;
            for (auto i = rng.below(8); i > 0; --i) prefix.push_back(pool[rng.below(pool.size())]);
            h.deliver(sender, make_batch(pool, own, rng), prefix);
            continue;
          }
          const auto leaf = h.node->leaf_set().all();
          NodeId peer = rng.next_u64();
          if (rng.chance(0.4)) peer = pool[rng.below(pool.size())].id;
          if (rng.chance(0.3) && !leaf.empty()) peer = leaf[rng.below(leaf.size())].id;
          // The union exactly as CREATEMESSAGE assembles it.
          std::vector<NodeDescriptor> un = to_vector(h.node->leaf_set().successors());
          const auto pred = h.node->leaf_set().predecessors();
          un.insert(un.end(), pred.begin(), pred.end());
          const auto table = h.node->prefix_table().entries();
          const auto msg = h.node->create_message(peer, false);
          if (cfg.use_random_samples) {
            un.insert(un.end(), h.sampler->last.begin(), h.sampler->last.end());
          }
          if (cfg.prefix_entries_in_union) un.insert(un.end(), table.begin(), table.end());
          un.push_back(self);
          const ref::MessageParts want = ref::create_message(un, peer, cfg);
          const auto ring = to_vector(msg->ring_part());
          const auto prefix = to_vector(msg->prefix_part());
          if (shape != Shape::Conflicting) {
            ASSERT_EQ(ring, want.ring) << "seed " << seed << " config " << ci << " step " << step;
            ASSERT_EQ(prefix, want.prefix)
                << "seed " << seed << " config " << ci << " step " << step;
            continue;
          }
          ASSERT_EQ(ids_of(ring), ids_of(want.ring)) << "config " << ci << " step " << step;
          ASSERT_EQ(ids_of(prefix), ids_of(want.prefix)) << "config " << ci << " step " << step;
          const auto rule = lowest_address(un);
          expect_lowest_addresses(ring, rule, "ring", step);
          expect_lowest_addresses(prefix, rule, "prefix", step);
        }
        ASSERT_LT(h.engine.now(), cfg.delta);  // no active step interfered
      }
    }
  }
}

// --- Newscast merge --------------------------------------------------------------

constexpr std::size_t kNewscastPeers = 64;

/// A message body: `kind` picks the shape. Addresses stay within the
/// engine's nodes (0 is the receiver itself), plus the null address.
std::vector<TimestampedDescriptor> make_view_message(int kind, Address sender, SimTime now,
                                                     std::size_t view_size, Rng& rng) {
  const auto entry = [&](SimTime ts) {
    const auto a = static_cast<Address>(rng.below(kNewscastPeers + 1));
    return TimestampedDescriptor{{rng.next_u64(), a}, ts};
  };
  const auto past = [&] { return rng.below(now + 1); };
  std::vector<TimestampedDescriptor> out;
  switch (kind) {
    case 0:  // empty
      break;
    case 1:
    case 2: {  // a sender's view plus its fresh self entry; kind 2 shuffled
      std::set<Address> taken{sender};
      for (auto n = rng.below(view_size + 1); n > 0; --n) {
        auto e = entry(past());
        if (taken.insert(e.descriptor.addr).second) out.push_back(e);
      }
      std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
        return a.descriptor.addr < b.descriptor.addr;
      });
      out.push_back({{rng.next_u64(), sender}, now});
      if (kind == 2) rng.shuffle(out);
      break;
    }
    case 3:  // flooded
      for (auto n = 100 + rng.below(200); n > 0; --n) out.push_back(entry(past()));
      break;
    case 4: {  // repeated addresses with equal timestamps, different IDs
      for (auto n = 1 + rng.below(12); n > 0; --n) {
        const auto e = entry(past());
        for (auto r = 1 + rng.below(3); r > 0; --r) {
          out.push_back({{rng.next_u64(), e.descriptor.addr}, e.timestamp});
        }
      }
      break;
    }
    default:  // future timestamps, self and null entries mixed in
      for (auto n = rng.below(2 * view_size); n > 0; --n) {
        const auto pick = rng.below(6);
        if (pick == 0) {
          out.push_back(entry(now + 2 + rng.below(2000)));
        } else if (pick == 1) {
          out.push_back({{rng.next_u64(), rng.chance(0.5) ? 0u : kNullAddress}, past()});
        } else {
          out.push_back(entry(past()));
        }
      }
  }
  return out;
}

void expect_same_view(const std::vector<TimestampedDescriptor>& got,
                      const std::vector<TimestampedDescriptor>& want, std::size_t step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].descriptor, want[i].descriptor) << "[" << i << "] step " << step;
    EXPECT_EQ(got[i].timestamp, want[i].timestamp) << "[" << i << "] step " << step;
  }
}

TEST(HotPathEquivalence, NewscastMergeMatchesReference) {
  for (const std::uint64_t seed : kSeeds) {
    for (const std::size_t view_size : {3u, 8u, 30u}) {
      for (const bool harden : {false, true}) {
        NewscastConfig cfg;
        cfg.view_size = view_size;
        cfg.harden = harden;
        Rng rng(seed * 17 + view_size + (harden ? 1000 : 0));
        Engine engine(seed, TransportConfig{.min_latency = 1, .max_latency = 1});
        for (std::size_t i = 0; i <= kNewscastPeers; ++i) engine.add_node(0x2000 + i);
        auto owned = std::make_unique<NewscastProtocol>(cfg);
        NewscastProtocol& node = *owned;
        engine.attach(0, std::move(owned));
        // Seeds drawn with replacement: the first merge starts from an
        // unsorted view.
        DescriptorList seeds;
        for (auto n = rng.below(2 * view_size); n > 0; --n) {
          const auto a = static_cast<Address>(rng.below(kNewscastPeers + 1));
          seeds.push_back(engine.descriptor_of(a));
        }
        node.init_view(seeds);
        engine.start_node(0);
        engine.run_until(1);
        const auto rejected = [&] {
          return harden ? engine.metrics().counter("newscast.rejected").value() : 0;
        };
        for (std::size_t step = 0; step < 200; ++step) {
          std::vector<TimestampedDescriptor> want = node.view();
          const std::uint64_t rejected_before = rejected();
          std::uint64_t want_rejected = 0;
          if (rng.chance(0.1)) {
            const NodeDescriptor contact =
                engine.descriptor_of(static_cast<Address>(rng.below(kNewscastPeers + 1)));
            node.add_contact(contact, engine.now());
            want_rejected =
                ref::newscast_merge(want, {{contact, engine.now()}}, engine.now(), 0, cfg);
          } else {
            const auto sender = static_cast<Address>(1 + rng.below(kNewscastPeers));
            const auto body = make_view_message(static_cast<int>(rng.below(6)), sender,
                                                engine.now(), view_size, rng);
            engine.send_message(sender, 0, 0, std::make_unique<NewscastMessage>(body, false));
            engine.run_until(engine.now() + 1);
            want_rejected = ref::newscast_merge(want, body, engine.now(), 0, cfg);
          }
          expect_same_view(node.view(), want, step);
          EXPECT_EQ(rejected() - rejected_before, want_rejected) << "step " << step;
        }
      }
    }
  }
}


// --- pastry_next_hop -------------------------------------------------------------

/// The next-hop decision written the plain way: filter each candidate list
/// through `usable` first, then pick by ring order with std::min_element.
Address next_hop_reference(NodeId own, Address own_addr, const LeafSet& leaf,
                           const PrefixTable& prefix, NodeId key,
                           const std::function<bool(const NodeDescriptor&)>& usable) {
  if (key == own || leaf.empty()) return own_addr;
  const auto filtered = [&](DescriptorList ds) {
    if (usable) std::erase_if(ds, [&](const NodeDescriptor& d) { return !usable(d); });
    return ds;
  };
  const auto closest = [key](const DescriptorList& ds) {
    return std::min_element(ds.begin(), ds.end(), [key](const auto& a, const auto& b) {
      return closer_on_ring(key, a.id, b.id);
    });
  };
  const auto succ = to_vector(leaf.successors());
  const auto pred = to_vector(leaf.predecessors());
  if ((!succ.empty() &&
       successor_distance(own, key) <= successor_distance(own, succ.back().id)) ||
      (!pred.empty() &&
       predecessor_distance(own, key) <= predecessor_distance(own, pred.back().id))) {
    DescriptorList all = filtered(to_vector(leaf.all_view()));
    all.push_back({own, own_addr});
    return closest(all)->addr;
  }
  const int l = common_prefix_digits(own, key, prefix.digits());
  const DescriptorList cell = filtered(to_vector(prefix.cell(l, digit(key, l, prefix.digits()))));
  if (!cell.empty()) return closest(cell)->addr;
  DescriptorList known = filtered(to_vector(leaf.all_view()));
  const DescriptorList entries = filtered(to_vector(prefix.entries()));
  known.insert(known.end(), entries.begin(), entries.end());
  std::erase_if(known, [&](const NodeDescriptor& d) {
    return common_prefix_digits(d.id, key, prefix.digits()) < l;
  });
  known.push_back({own, own_addr});
  return closest(known)->addr;
}

TEST(HotPathEquivalence, PastryNextHopMatchesFilterThenMinElement) {
  for (const std::uint64_t seed : kSeeds) {
    for (const int b : {1, 2, 4}) {
      Rng rng(seed * 37 + static_cast<std::uint64_t>(b));
      const DigitConfig digits{b};
      const NodeId own = rng.next_u64();
      const Address own_addr = 0;
      LeafSet leaf(own, 2 + rng.below(20));
      PrefixTable prefix(own, digits, 1 + static_cast<int>(rng.below(3)));
      // Addresses 1..n; IDs spread over the ring and clustered near the own
      // ID, so keys hit the leaf range, filled cells and empty cells.
      DescriptorList pool;
      for (Address a = 1; a <= 400; ++a) {
        const NodeId off = rng.next_u64() >> rng.below(60);
        pool.push_back({a % 3 == 0 ? rng.next_u64() : rng.chance(0.5) ? own + off : own - off, a});
      }
      leaf.update(pool);
      prefix.insert_all(pool);
      for (const double dead_frac : {0.0, 0.3, 0.8, 1.0}) {
        std::vector<bool> alive(pool.size() + 1);
        for (std::size_t a = 1; a < alive.size(); ++a) alive[a] = !rng.chance(dead_frac);
        const auto is_alive = [&alive](const NodeDescriptor& d) {
          return d.addr < alive.size() && alive[d.addr];
        };
        for (int i = 0; i < 400; ++i) {
          const NodeDescriptor near = pool[rng.below(pool.size())];
          const NodeId key = rng.chance(0.5)   ? rng.next_u64()
                             : rng.chance(0.5) ? near.id + rng.below(3) - 1
                                               : own + rng.below(1u << 20) - (1u << 19);
          const Address exclude = near.addr;
          const std::function<bool(const NodeDescriptor&)> predicates[] = {
              nullptr, is_alive,
              [&](const NodeDescriptor& d) { return d.addr != exclude && is_alive(d); }};
          for (const auto& usable : predicates) {
            ASSERT_EQ(pastry_next_hop(own, own_addr, leaf, prefix, key, usable),
                      next_hop_reference(own, own_addr, leaf, prefix, key, usable))
                << "seed " << seed << " b " << b << " dead " << dead_frac << " key " << key;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace bsvc
