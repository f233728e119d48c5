#include "gossip/aggregation.hpp"

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace bsvc {

namespace {
constexpr std::uint64_t kExchangeTimer = 1;
}

AggregationProtocol::AggregationProtocol(AggregationConfig config, PeerSampler* sampler,
                                         double initial_value)
    : config_(config), sampler_(sampler), value_(initial_value) {
  BSVC_CHECK(sampler_ != nullptr);
  BSVC_CHECK(config_.period > 0);
}

void AggregationProtocol::on_start(Context& ctx) {
  ctx.schedule_timer(ctx.rng().below(config_.period), kExchangeTimer);
}

void AggregationProtocol::on_timer(Context& ctx, std::uint64_t timer_id) {
  BSVC_CHECK(timer_id == kExchangeTimer);
  const auto peers = sampler_->sample(1);
  if (!peers.empty()) {
    ctx.send(peers.front().addr,
             std::make_unique<AggregationMessage>(value_, /*is_request=*/true));
  }
  ctx.schedule_timer(config_.period, kExchangeTimer);
}

void AggregationProtocol::on_message(Context& ctx, Address from, const Payload& payload) {
  const auto* msg = payload_cast<AggregationMessage>(payload);
  if (msg == nullptr) {
    BSVC_WARN("aggregation: unexpected payload type %s", payload.type_name());
    return;
  }
  if (!msg->is_request) {
    // The answer carries the transfer the responder already applied with the
    // opposite sign, so the pair's sum is conserved even when the initiator's
    // value moved (another exchange) while its request was in flight.
    value_ += msg->value;
    return;
  }
  const double transfer = (value_ - msg->value) / 2.0;
  value_ -= transfer;
  ctx.send(from, std::make_unique<AggregationMessage>(transfer, /*is_request=*/false));
}

}  // namespace bsvc
