// Differential tests for the per-exchange hot path: LeafSet::update,
// PrefixTable::insert_all, both tables' append_in_ring_order, CREATEMESSAGE's
// ring and prefix parts and the Newscast merge must match the plain
// reference versions in tests/reference_impls.hpp element for element, in
// order, over seeded random operation sequences. The inputs cover unsorted and flooded lists,
// duplicate addresses with equal timestamps, future timestamps under
// harden, and empty or one-sided leaf sets. Inputs that bind one ID to
// several addresses are checked against the explicit same-ID rule (the
// lowest address wins) rather than against the references, whose choice
// there is whatever std::sort leaves first.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/bootstrap.hpp"
#include "core/leaf_set.hpp"
#include "core/prefix_table.hpp"
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

}  // namespace
}  // namespace bsvc
