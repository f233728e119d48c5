// Idealized peer sampler with global knowledge.
//
// Draws uniformly from the engine's alive node set. Used to (a) unit-test
// higher layers independently of Newscast and (b) run ablations that ask how
// much sampling quality matters. Liveness only changes at window barriers,
// so reading it from inside a node callback is safe at every shard count as
// long as the draws come from that node's own stream.
#pragma once

#include "sampling/peer_sampler.hpp"
#include "sim/engine.hpp"

namespace bsvc {

/// Per-node facade over the engine's global membership.
class OracleSampler final : public PeerSampler {
 public:
  /// `self` is excluded from all samples; draws come from `rng`, which must
  /// outlive the sampler (a node stream, or Engine::rng() at barriers).
  OracleSampler(Engine& engine, Address self, Rng& rng)
      : engine_(engine), self_(self), rng_(rng) {}

  DescriptorList sample(std::size_t n) override;
  void sample_into(std::size_t n, DescriptorList& out) override;

 private:
  Engine& engine_;
  Address self_;
  Rng& rng_;
  // Rejection-sampling scratch, reused across calls.
  std::vector<bool> taken_;
};

/// Protocol-shaped adapter so an oracle-sampled node has the same stack
/// layout (slot 0 = sampling service) as a Newscast node. Does nothing on
/// the wire. Draws from the node's own stream (Engine::node_rng), since it
/// samples from inside node callbacks, where Engine::rng() is off limits.
class OracleSamplerProtocol final : public Protocol, public PeerSampler {
 public:
  OracleSamplerProtocol(Engine& engine, Address self)
      : impl_(engine, self, engine.node_rng(self)) {}
  DescriptorList sample(std::size_t n) override { return impl_.sample(n); }
  void sample_into(std::size_t n, DescriptorList& out) override { impl_.sample_into(n, out); }

 private:
  OracleSampler impl_;
};

}  // namespace bsvc
