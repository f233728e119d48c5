// Push–pull gossip aggregation (averaging) over the peer sampling service.
//
// The second Fig. 1 component [7]: every period a node exchanges its value
// with a random peer and both adopt the mean; all values converge
// exponentially fast to the global average. Network size estimation (used by
// the examples to decide how many bootstrap cycles to run) is the classic
// instance: one node starts at 1, the rest at 0, the average is 1/N.
#pragma once

#include <cstdint>

#include "sampling/peer_sampler.hpp"
#include "sim/engine.hpp"
#include "sim/protocol.hpp"

namespace bsvc {

/// Value exchange message. A push carries the sender's value; the pull
/// answer carries the transfer (responder value − pushed value) / 2, which
/// the responder subtracted and the initiator adds. Exchanges that overlap
/// at one node therefore still conserve the global sum, so the average the
/// values converge to is exact.
class AggregationMessage final : public Payload {
 public:
  static constexpr PayloadKind kKind = PayloadKind::Aggregation;

  AggregationMessage(double value, bool is_request)
      : Payload(kKind), value(value), is_request(is_request) {}
  std::size_t wire_bytes() const override { return 8 + 1; }
  const char* type_name() const override { return "aggregation"; }
  double value;
  bool is_request;
};

struct AggregationConfig {
  SimTime period = kDelta;
};

/// Per-node averaging protocol instance.
class AggregationProtocol final : public Protocol {
 public:
  AggregationProtocol(AggregationConfig config, PeerSampler* sampler, double initial_value);

  void on_start(Context& ctx) override;
  void on_timer(Context& ctx, std::uint64_t timer_id) override;
  void on_message(Context& ctx, Address from, const Payload& payload) override;

  /// Current local estimate of the global average.
  double value() const { return value_; }
  /// Network size estimate assuming the 1-at-one-node / 0-elsewhere init.
  double size_estimate() const { return value_ > 0.0 ? 1.0 / value_ : 0.0; }

 private:
  AggregationConfig config_;
  PeerSampler* sampler_;
  double value_;
};

}  // namespace bsvc
