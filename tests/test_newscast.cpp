#include "sampling/newscast.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "sampling/graph_metrics.hpp"
#include "sim/scenario.hpp"

namespace bsvc {
namespace {

struct NewscastNet {
  Engine engine;
  std::size_t n;

  NewscastNet(std::size_t n, std::uint64_t seed, NewscastConfig cfg = {},
              std::size_t contacts = 5, bool star_init = false)
      : engine(seed), n(n) {
    for (std::size_t i = 0; i < n; ++i) {
      const Address a = engine.add_node(static_cast<NodeId>(i * 2654435761u + 1));
      engine.attach(a, std::make_unique<NewscastProtocol>(cfg));
    }
    for (Address a = 0; a < n; ++a) {
      DescriptorList seeds;
      if (star_init) {
        // Degenerate initialization: everyone knows only node 0.
        if (a != 0) seeds.push_back(engine.descriptor_of(0));
      } else {
        for (std::size_t s = 0; s < contacts; ++s) {
          const auto peer = static_cast<Address>(engine.rng().below(n));
          if (peer != a) seeds.push_back(engine.descriptor_of(peer));
        }
      }
      proto(a).init_view(std::move(seeds));
      engine.start_node(a);
    }
  }

  NewscastProtocol& proto(Address a) {
    return dynamic_cast<NewscastProtocol&>(engine.protocol(a, 0));  // test-only checked cast
  }

  void run_cycles(std::size_t cycles, SimTime period = kDelta) {
    engine.run_until(engine.now() + cycles * period);
  }
};

TEST(Newscast, ViewNeverExceedsConfiguredSize) {
  NewscastConfig cfg;
  cfg.view_size = 8;
  NewscastNet net(64, 1, cfg);
  net.run_cycles(20);
  for (Address a = 0; a < 64; ++a) {
    EXPECT_LE(net.proto(a).view().size(), 8u);
  }
}

TEST(Newscast, ViewNeverContainsSelfOrDuplicates) {
  NewscastNet net(128, 2);
  net.run_cycles(15);
  for (Address a = 0; a < 128; ++a) {
    std::set<Address> seen;
    for (const auto& e : net.proto(a).view()) {
      EXPECT_NE(e.descriptor.addr, a);
      EXPECT_TRUE(seen.insert(e.descriptor.addr).second);
    }
  }
}

TEST(Newscast, ViewsFillUp) {
  NewscastConfig cfg;
  cfg.view_size = 20;
  NewscastNet net(256, 3, cfg);
  net.run_cycles(15);
  for (Address a = 0; a < 256; ++a) {
    EXPECT_GE(net.proto(a).view().size(), 18u);
  }
}

TEST(Newscast, SampleReturnsDistinctPeersNotSelf) {
  NewscastNet net(128, 4);
  net.run_cycles(10);
  auto samples = net.proto(5).sample(10);
  EXPECT_GE(samples.size(), 5u);
  std::set<Address> seen;
  for (const auto& d : samples) {
    EXPECT_NE(d.addr, 5u);
    EXPECT_TRUE(seen.insert(d.addr).second);
  }
}

TEST(Newscast, SampleZeroAndOversized) {
  NewscastNet net(32, 5);
  net.run_cycles(5);
  EXPECT_TRUE(net.proto(0).sample(0).empty());
  const auto all = net.proto(0).sample(1000);
  EXPECT_EQ(all.size(), net.proto(0).view().size());
}

TEST(Newscast, GraphStaysConnectedAndBalanced) {
  NewscastNet net(1024, 6);
  net.run_cycles(20);
  const auto stats = measure_view_graph(net.engine, SlotRef<NewscastProtocol>::assume(0));
  EXPECT_EQ(stats.components, 1u);
  EXPECT_EQ(stats.alive_nodes, 1024u);
  // In-degree should concentrate near the view size; a random graph with
  // mean m has stddev ~ sqrt(m). Allow generous slack.
  EXPECT_GT(stats.indegree_mean, 15.0);
  EXPECT_LT(stats.indegree_stddev, stats.indegree_mean);
  EXPECT_LT(stats.clustering, 0.3);
}

TEST(Newscast, RandomizesFromDegenerateStarInit) {
  // Every node starts knowing only node 0 ("all nodes have the same
  // samples"); the protocol must still mix into a balanced random graph.
  NewscastNet net(512, 7, {}, 5, /*star_init=*/true);
  net.run_cycles(25);
  const auto stats = measure_view_graph(net.engine, SlotRef<NewscastProtocol>::assume(0));
  EXPECT_EQ(stats.components, 1u);
  // Node 0 must no longer dominate in-degrees.
  EXPECT_LT(static_cast<double>(stats.indegree_max), 6.0 * stats.indegree_mean);
}

TEST(Newscast, SelfHealsAfterCatastrophicFailure) {
  NewscastNet net(1024, 8);
  net.run_cycles(10);
  schedule_catastrophe(net.engine, net.engine.now(), 0.7);
  net.run_cycles(25);
  const auto stats = measure_view_graph(net.engine, SlotRef<NewscastProtocol>::assume(0));
  EXPECT_EQ(stats.alive_nodes, 308u);  // 1024 - 716
  EXPECT_EQ(stats.components, 1u);
  // Dead entries age out of the views.
  EXPECT_LT(stats.dead_entry_fraction, 0.05);
}

TEST(Newscast, FreshestEntryWinsOnMerge) {
  // Direct unit check of the merge rule via two nodes exchanging.
  NewscastConfig cfg;
  cfg.view_size = 4;
  NewscastNet net(2, 9, cfg, 1);
  net.run_cycles(3);
  // Each view holds the other node with an up-to-date timestamp.
  for (Address a = 0; a < 2; ++a) {
    ASSERT_EQ(net.proto(a).view().size(), 1u);
    EXPECT_GT(net.proto(a).view()[0].timestamp, 0u);
  }
}

TEST(Newscast, SeedsKeepTheFirstEntryPerAddress) {
  // Seeds drawn with replacement may repeat a contact, and add_contact
  // before start may repeat one more time; the view holds each address
  // once. The peers never start, so no merge runs before the check.
  Engine engine(12);
  for (NodeId id = 1; id <= 4; ++id) engine.add_node(id * 1000);
  auto owned = std::make_unique<NewscastProtocol>(NewscastConfig{});
  NewscastProtocol& node = *owned;
  engine.attach(0, std::move(owned));
  const auto d = [&](Address a) { return engine.descriptor_of(a); };
  node.init_view({d(2), d(1), d(2), d(0), d(3), d(1)});
  node.add_contact(d(3), 0);
  node.add_contact(d(1), 0);
  engine.start_node(0);
  engine.run_until(3 * kDelta);
  std::vector<Address> addrs;
  for (const auto& e : node.view()) addrs.push_back(e.descriptor.addr);
  EXPECT_EQ(addrs, (std::vector<Address>{2, 1, 3}));
}

TEST(Newscast, TrafficIsOneExchangePerNodePerCycle) {
  NewscastNet net(256, 10);
  net.engine.reset_traffic();
  net.run_cycles(10);
  const auto& t = net.engine.traffic();
  // 256 nodes x 10 cycles x (request + answer) = 5120 messages; allow a bit
  // of slack for edge-of-window timers.
  EXPECT_NEAR(static_cast<double>(t.messages_sent), 5120.0, 300.0);
}

}  // namespace
}  // namespace bsvc
