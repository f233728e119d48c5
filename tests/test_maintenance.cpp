// Tests for the liveness-maintenance extension (evict_unresponsive):
// probe/evict, death certificates, restart-based recovery, massive-join
// absorption, and the ordering rules of certificate piggybacking and
// quarantine probing.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "sim/scenario.hpp"
#include "wire/message_codec.hpp"

namespace bsvc {
namespace {

ExperimentConfig base(std::size_t n, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.max_cycles = 60;
  return cfg;
}

TEST(Maintenance, EvictionClearsDeadLeafEntries) {
  auto cfg = base(512, 1);
  cfg.bootstrap.evict_unresponsive = true;
  BootstrapExperiment exp(cfg);
  const auto initial = exp.run();
  ASSERT_GE(initial.converged_cycle, 0);

  // Kill 10% of the nodes, keep gossiping, and check the survivors purge
  // the dead entries from their leaf sets.
  auto& engine = exp.engine();
  for (Address a = 0; a < 51; ++a) engine.kill_node(a);
  engine.run_until(engine.now() + 30 * kDelta);

  std::size_t dead_leaf_entries = 0;
  std::size_t total_leaf_entries = 0;
  for (const Address a : engine.alive_addresses()) {
    for (const auto& d : exp.bootstrap_of(a).leaf_set().all()) {
      ++total_leaf_entries;
      if (!engine.is_alive(d.addr)) ++dead_leaf_entries;
    }
  }
  EXPECT_LT(static_cast<double>(dead_leaf_entries) / static_cast<double>(total_leaf_entries),
            0.005);
  // And the survivors' leaf sets re-converged to the survivor-perfect sets.
  const ConvergenceOracle oracle(engine, cfg.bootstrap, exp.bootstrap_slot());
  const auto m = oracle.measure(/*check_liveness=*/true);
  EXPECT_LT(m.missing_leaf_fraction(), 0.01);
}

TEST(Maintenance, WithoutEvictionDeadEntriesPersist) {
  auto cfg = base(512, 2);  // extension off: the paper's bare protocol
  BootstrapExperiment exp(cfg);
  ASSERT_GE(exp.run().converged_cycle, 0);
  auto& engine = exp.engine();
  for (Address a = 0; a < 51; ++a) engine.kill_node(a);
  engine.run_until(engine.now() + 30 * kDelta);
  std::size_t dead_leaf_entries = 0;
  for (const Address a : engine.alive_addresses()) {
    for (const auto& d : exp.bootstrap_of(a).leaf_set().all()) {
      dead_leaf_entries += engine.is_alive(d.addr) ? 0 : 1;
    }
  }
  EXPECT_GT(dead_leaf_entries, 100u);  // ~51 dead x ~20 holders, never cleaned
}

TEST(Maintenance, TombstonesTravelOnTheWire) {
  const BootstrapMessage msg({1, 1}, {}, {}, true);
  auto with_ts = std::make_unique<BootstrapMessage>(msg.sender, DescriptorList{},
                                                    DescriptorList{}, true);
  with_ts->tombstones = {{0xAAAA, 5000}, {0xBBBB, 9000}};
  const auto bytes = encode_message(*with_ts);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(bytes->size() - 1, with_ts->wire_bytes());
  auto decoded = decode_message(*bytes);
  ASSERT_NE(decoded, nullptr);
  const auto& back = dynamic_cast<const BootstrapMessage&>(*decoded);  // test-only checked cast
  ASSERT_EQ(back.tombstones.size(), 2u);
  EXPECT_EQ(back.tombstones[0].id, 0xAAAAu);
  EXPECT_EQ(back.tombstones[0].expiry, 5000u);
  EXPECT_EQ(back.tombstones[1].id, 0xBBBBu);
}

TEST(Maintenance, RestartRecoversFromCatastrophe) {
  auto cfg = base(512, 3);
  cfg.bootstrap.evict_unresponsive = true;
  cfg.bootstrap.tombstone_ttl_cycles = 60;
  cfg.stop_at_convergence = false;
  cfg.max_cycles = 20;
  BootstrapExperiment exp(cfg);
  exp.run();  // initial convergence window
  auto& engine = exp.engine();

  schedule_catastrophe(engine, engine.now(), 0.7);
  engine.run_until(engine.now() + 8 * kDelta);  // Newscast quarantine
  for (const Address a : engine.alive_addresses()) {
    engine.schedule_timer(a, exp.bootstrap_slot(), engine.rng().below(kDelta),
                          BootstrapProtocol::kRestartTimer);
  }
  engine.run_until(engine.now() + 60 * kDelta);

  const ConvergenceOracle oracle(engine, cfg.bootstrap, exp.bootstrap_slot());
  const auto m = oracle.measure(/*check_liveness=*/true);
  EXPECT_LT(m.missing_leaf_fraction(), 0.05);
  EXPECT_LT(m.missing_prefix_fraction(), 0.05);
}

TEST(Maintenance, MassiveJoinAbsorbedToPerfection) {
  auto cfg = base(256, 4);
  BootstrapExperiment exp(cfg);
  ASSERT_GE(exp.run().converged_cycle, 0);
  auto& engine = exp.engine();
  for (int i = 0; i < 256; ++i) {
    const Address addr = exp.make_node();
    engine.start_node(addr, engine.rng().below(kDelta));
  }
  int absorbed = -1;
  for (int cycle = 0; cycle < 40; ++cycle) {
    engine.run_until(engine.now() + kDelta);
    const ConvergenceOracle oracle(engine, cfg.bootstrap, exp.bootstrap_slot());
    if (oracle.measure().converged()) {
      absorbed = cycle;
      break;
    }
  }
  ASSERT_GE(absorbed, 0);
  EXPECT_LE(absorbed, 30);
}

TEST(Maintenance, FalseTombstonesExpire) {
  // With heavy loss, live peers get condemned occasionally; after the TTL
  // they may return, and meanwhile the network keeps working.
  auto cfg = base(256, 5);
  cfg.bootstrap.evict_unresponsive = true;
  cfg.bootstrap.tombstone_ttl_cycles = 5;
  cfg.drop_probability = 0.2;
  cfg.stop_at_convergence = false;
  cfg.max_cycles = 60;
  BootstrapExperiment exp(cfg);
  const auto result = exp.run();
  // With 20% loss, a probe sequence of 3 attempts still misfires ~5% of the
  // time and the short-TTL certificates suppress the victims briefly; the
  // requirement is graceful degradation, not perfection — the bare protocol
  // (extension off) is what the lossy Figure 4 experiments use.
  const auto rows = result.series.rows();
  EXPECT_LT(result.series.at(rows - 1, 1), 0.15);
  EXPECT_LT(result.series.at(rows - 1, 2), 0.15);
}

// --- ordering rules on a hand-driven node ---------------------------------
//
// One BootstrapProtocol (address 0) among scripted peers, on a transport
// with a fixed 10-tick latency, so every injected message lands at a known
// time and in send order.

constexpr SimTime kLatency = 10;

class FixedSampler final : public PeerSampler {
 public:
  explicit FixedSampler(DescriptorList peers) : peers_(std::move(peers)) {}
  DescriptorList sample(std::size_t n) override {
    return {peers_.begin(), peers_.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(n, peers_.size()))};
  }

 private:
  DescriptorList peers_;
};

// A scripted peer: never answers gossip, optionally echoes probes, and
// remembers when the first probe request reached it.
class ScriptedPeer final : public Protocol {
 public:
  explicit ScriptedPeer(bool echo) : echo_(echo) {}
  void on_message(Context& ctx, Address from, const Payload& payload) override {
    const auto* probe = payload_cast<ProbeMessage>(payload);
    if (probe == nullptr || probe->is_reply) return;
    if (first_probe == 0) first_probe = ctx.now();
    if (echo_) ctx.send(from, std::make_unique<ProbeMessage>(true, ctx.self_id()));
  }
  SimTime first_probe = 0;

 private:
  bool echo_;
};

struct HandDriven {
  std::unique_ptr<FixedSampler> sampler;  // outlives the engine's protocols
  Engine engine{3, TransportConfig{.min_latency = kLatency, .max_latency = kLatency}};
  BootstrapProtocol* node = nullptr;
  std::vector<ScriptedPeer*> peers;  // index i lives at address i + 1

  /// `helpers` echoing peers fill the node's leaf set; `silent` more peers
  /// never answer anything.
  HandDriven(BootstrapConfig cfg, std::size_t helpers, std::size_t silent) {
    const Address self = engine.add_node(1);
    DescriptorList leaf;
    for (std::size_t i = 0; i < helpers + silent; ++i) {
      const NodeId id = (i + 2) << 40;
      const Address a = engine.add_node(id);
      auto peer = std::make_unique<ScriptedPeer>(i < helpers);
      peers.push_back(peer.get());
      engine.attach(a, std::move(peer));
      if (i < helpers) leaf.push_back({id, a});
    }
    sampler = std::make_unique<FixedSampler>(leaf);
    auto proto = std::make_unique<BootstrapProtocol>(cfg, sampler.get(), nullptr, 0);
    node = proto.get();
    engine.attach(self, std::move(proto));
    for (Address a = 0; a < engine.node_count(); ++a) engine.start_node(a);
  }

  /// Sends a gossip answer from `from` to the node and runs until it landed.
  void deliver(Address from, std::unique_ptr<BootstrapMessage> msg) {
    engine.send_message(from, 0, 0, std::move(msg));
    engine.run_until(engine.now() + kLatency);
  }
};

std::unique_ptr<BootstrapMessage> certificates(const HandDriven& h, NodeId first,
                                               std::size_t count, SimTime expiry) {
  auto msg = std::make_unique<BootstrapMessage>(h.engine.descriptor_of(1), false);
  for (std::size_t i = 0; i < count; ++i) msg->tombstones.push_back({first + i, expiry});
  return msg;
}

std::vector<NodeId> piggybacked(BootstrapProtocol& node) {
  const auto msg = node.create_message(12345, false);
  std::vector<NodeId> ids;
  for (const Tombstone& ts : msg->tombstones) ids.push_back(ts.id);
  return ids;
}

TEST(MaintenanceRules, CertificatesTravelNewestFirstUnexpiredAtMost64) {
  BootstrapConfig cfg;
  cfg.evict_unresponsive = true;
  HandDriven h(cfg, 3, 0);
  const SimTime far = 100 * kDelta;
  h.engine.run_until(100);
  h.deliver(1, certificates(h, 1000, 70, far));  // 1000..1069, oldest
  h.engine.run_until(200);
  {
    // 2000..2009 expire at t = 300; 1000 is extended, which keeps its rank.
    auto msg = certificates(h, 2000, 10, 300);
    msg->tombstones.push_back({1000, 2 * far});
    h.deliver(1, std::move(msg));
  }
  h.engine.run_until(300);
  h.deliver(1, certificates(h, 4000, 5, far));  // 4000..4004, newest

  // At t = 310 the 2000s have expired (not yet swept): skipped.
  std::vector<NodeId> want;
  for (NodeId id = 4004; id >= 4000; --id) want.push_back(id);
  for (NodeId id = 1069; want.size() < BootstrapMessage::kMaxTombstonesPerMessage; --id) {
    want.push_back(id);
  }
  EXPECT_EQ(piggybacked(*h.node), want);

  // An expired certificate that arrives again is the newest one.
  h.deliver(1, certificates(h, 2003, 1, far));
  want.insert(want.begin(), 2003);
  want.pop_back();
  EXPECT_EQ(piggybacked(*h.node), want);

  // The maintenance sweep at t = Δ compacts the expired entries out and
  // keeps the order of the rest.
  h.engine.run_until(kDelta + 100);
  EXPECT_EQ(piggybacked(*h.node), want);
}

TEST(MaintenanceRules, QuarantineIsProbedOldestFirst) {
  BootstrapConfig cfg;
  cfg.evict_unresponsive = true;
  cfg.harden = true;
  // Peers 1..3 echo (the leaf set); 4 is the liar; 5..9 are quarantined.
  HandDriven h(cfg, 3, 6);
  const Address liar = 4;
  h.engine.run_until(100);
  // A sender descriptor that contradicts the transport source marks the liar.
  h.deliver(liar, std::make_unique<BootstrapMessage>(
                      NodeDescriptor{h.engine.id_of(liar), 1}, false));
  // Everything the liar vouches for from now on is quarantined, in order.
  DescriptorList planted;
  for (Address a = 5; a <= 9; ++a) planted.push_back(h.engine.descriptor_of(a));
  h.deliver(liar, std::make_unique<BootstrapMessage>(h.engine.descriptor_of(liar), planted,
                                                     DescriptorList{}, false));
  h.engine.run_until(4 * kDelta);
  // Two new quarantine probes per cycle, oldest first; the silent ones stay
  // outstanding, so each cycle moves on to the next two.
  const auto probed_in_cycle = [&](Address a) {
    return static_cast<int>(h.peers[a - 1]->first_probe / kDelta);
  };
  EXPECT_EQ(probed_in_cycle(5), 1);
  EXPECT_EQ(probed_in_cycle(6), 1);
  EXPECT_EQ(probed_in_cycle(7), 2);
  EXPECT_EQ(probed_in_cycle(8), 2);
  EXPECT_EQ(probed_in_cycle(9), 3);
}

TEST(MaintenanceRules, SameIdKeepsTheLowestAddress) {
  // One ID bound to two addresses in one message: UPDATELEAFSET keeps the
  // lower address, while the prefix table keeps the first binding it saw
  // (it never replaces an entry). CREATEMESSAGE then unions both bindings
  // and must ship the lower one, once.
  HandDriven h(BootstrapConfig{}, 3, 2);
  const NodeId x = (7ull << 40) + 5;
  h.engine.run_until(100);
  h.deliver(1, std::make_unique<BootstrapMessage>(
                   h.engine.descriptor_of(1), DescriptorList{{x, 5}, {x, 4}},
                   DescriptorList{}, false));
  std::vector<Address> in_leaf;
  for (const auto& d : h.node->leaf_set().all()) {
    if (d.id == x) in_leaf.push_back(d.addr);
  }
  EXPECT_EQ(in_leaf, std::vector<Address>{4});
  ASSERT_TRUE(h.node->prefix_table().contains(x));

  const auto msg = h.node->create_message(12345, false);
  std::vector<Address> shipped;
  for (const auto& d : msg->all_entries()) {
    if (d.id == x) shipped.push_back(d.addr);
  }
  EXPECT_EQ(shipped, std::vector<Address>{4});

  // A later, higher binding does not displace the held one.
  h.deliver(1, std::make_unique<BootstrapMessage>(h.engine.descriptor_of(1),
                                                  DescriptorList{{x, 5}}, DescriptorList{},
                                                  false));
  in_leaf.clear();
  for (const auto& d : h.node->leaf_set().all()) {
    if (d.id == x) in_leaf.push_back(d.addr);
  }
  EXPECT_EQ(in_leaf, std::vector<Address>{4});
}

}  // namespace
}  // namespace bsvc
