#include "sampling/newscast.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace bsvc {

namespace {
constexpr std::uint64_t kGossipTimer = 1;

// Merge scratch shared by every Newscast instance on a worker lane
// (thread-local, like the bootstrap protocol's): a merge's data lives only
// within the call, so no node keeps a second view-sized buffer.
struct MergeScratch {
  std::vector<TimestampedDescriptor> candidates;  // the view, then accepted arrivals
  std::vector<std::uint32_t> order;               // fallback sort order
  std::vector<TimestampedDescriptor> out;
  std::vector<Address> seen;  // open-addressing set of emitted addresses
};

MergeScratch& merge_scratch() {
  thread_local MergeScratch s;
  return s;
}
}  // namespace

NewscastProtocol::NewscastProtocol(NewscastConfig config) : config_(config) {
  BSVC_CHECK(config_.view_size > 0);
  BSVC_CHECK(config_.period > 0);
}

void NewscastProtocol::init_view(DescriptorList seeds) { pending_seeds_ = std::move(seeds); }

void NewscastProtocol::add_contact(const NodeDescriptor& contact, SimTime now) {
  if (!started_) {
    pending_seeds_.push_back(contact);
    return;
  }
  merge({{contact, now}}, now);
}

void NewscastProtocol::on_start(Context& ctx) {
  self_ = {ctx.self_id(), ctx.self()};
  rng_ = &ctx.rng();
  ctr_exchanges_ = &ctx.engine().metrics().counter("newscast.exchanges");
  if (config_.harden) {
    ctr_rejected_ = &ctx.engine().metrics().counter("newscast.rejected");
  }
  started_ = true;
  view_.clear();
  for (const auto& seed : pending_seeds_) {
    if (seed.addr == self_.addr) continue;
    // Seeds may name one contact twice (drawn with replacement, or added
    // again before start): the view holds each address once, first entry
    // kept, as every later merge assumes.
    if (std::any_of(view_.begin(), view_.end(), [&](const TimestampedDescriptor& e) {
          return e.descriptor.addr == seed.addr;
        })) {
      continue;
    }
    view_.push_back({seed, ctx.now()});
  }
  pending_seeds_.clear();
  if (view_.size() > config_.view_size) view_.resize(config_.view_size);
  // First exchange at a random offset within one period: the loosely
  // synchronized start the paper assumes.
  ctx.schedule_timer(ctx.rng().below(config_.period), kGossipTimer);
}

void NewscastProtocol::on_timer(Context& ctx, std::uint64_t timer_id) {
  BSVC_CHECK(timer_id == kGossipTimer);
  if (!view_.empty()) {
    const auto& peer = view_[ctx.rng().below(view_.size())].descriptor;
    ctx.send(peer.addr, outgoing(ctx, /*is_request=*/true));
    ctr_exchanges_->inc();
  }
  ctx.schedule_timer(config_.period, kGossipTimer);
}

void NewscastProtocol::on_message(Context& ctx, Address from, const Payload& payload) {
  const auto* msg = payload_cast<NewscastMessage>(payload);
  if (msg == nullptr) {
    BSVC_WARN("newscast: unexpected payload type %s", payload.type_name());
    return;
  }
  if (!started_) return;  // not yet initialized (staggered start): sender retries
  if (msg->is_request) {
    ctx.send(from, outgoing(ctx, /*is_request=*/false));
  }
  merge(msg->entries, ctx.now());
}

DescriptorList NewscastProtocol::sample(std::size_t n) {
  DescriptorList out;
  sample_into(n, out);
  return out;
}

void NewscastProtocol::sample_into(std::size_t n, DescriptorList& out) {
  if (view_.empty() || n == 0) return;
  BSVC_CHECK_MSG(rng_ != nullptr, "sample() before protocol start");
  const auto take = std::min(n, view_.size());
  rng_->distinct_indices_into(static_cast<std::uint32_t>(take),
                              static_cast<std::uint32_t>(view_.size()), idx_buf_);
  out.reserve(out.size() + take);
  for (auto i : idx_buf_) out.push_back(view_[i].descriptor);
}

void NewscastProtocol::merge(const std::vector<TimestampedDescriptor>& incoming, SimTime now) {
  MergeScratch& s = merge_scratch();
  std::vector<TimestampedDescriptor>& cand = s.candidates;
  cand.assign(view_.begin(), view_.end());
  std::size_t accepted = 0;
  for (const auto& entry : incoming) {
    if (entry.descriptor.addr == self_.addr || entry.descriptor.addr == kNullAddress) continue;
    if (config_.harden) {
      // Future timestamps are freshness forgery — a poisoned entry stamped
      // ahead of the clock would win every dedupe until the horizon. The
      // flood cap bounds what a single message may change; a compliant
      // exchange carries at most the peer's view plus its self entry.
      if (entry.timestamp > now || accepted >= config_.view_size + 1) {
        if (ctr_rejected_ != nullptr) ctr_rejected_->inc();
        continue;
      }
      ++accepted;
    }
    cand.push_back(entry);
  }

  // Merge order: freshest first, then lowest address, then the earlier
  // candidate — the view before the arrivals, arrivals in message order.
  // The first candidate of an address in this order is the freshest one
  // (ties keep the entry seen first), and the first view_size distinct
  // addresses are the new view, already in view order.
  const auto before = [&cand](std::uint32_t a, std::uint32_t b) {
    const TimestampedDescriptor& x = cand[a];
    const TimestampedDescriptor& y = cand[b];
    if (x.timestamp != y.timestamp) return x.timestamp > y.timestamp;
    if (x.descriptor.addr != y.descriptor.addr) return x.descriptor.addr < y.descriptor.addr;
    return a < b;
  };
  // The usual candidates are three ordered runs: the view, the sender's
  // view, and the sender's fresh self entry (sent last).
  const auto view_end = static_cast<std::uint32_t>(view_.size());
  const auto cand_end = static_cast<std::uint32_t>(cand.size());
  const std::uint32_t tail = cand_end > view_end ? cand_end - 1 : view_end;
  const std::uint32_t runs[4] = {0, view_end, tail, cand_end};
  bool runs_ordered = true;
  for (int r = 0; r < 3 && runs_ordered; ++r) {
    for (std::uint32_t k = runs[r] + 1; k < runs[r + 1] && runs_ordered; ++k) {
      runs_ordered = !before(k, k - 1);
    }
  }

  std::vector<Address>& seen = s.seen;
  seen.assign(std::bit_ceil(2 * config_.view_size), kNullAddress);
  const std::size_t mask = seen.size() - 1;
  std::vector<TimestampedDescriptor>& out = s.out;
  out.clear();
  // Emits candidate k unless its address was already emitted; true once the
  // view is full.
  const auto take = [&](std::uint32_t k) {
    const TimestampedDescriptor& e = cand[k];
    const std::uint32_t hash = e.descriptor.addr * 0x9E3779B1u;
    for (std::size_t h = hash & mask;; h = (h + 1) & mask) {
      if (seen[h] == e.descriptor.addr) return false;
      if (seen[h] == kNullAddress) {
        seen[h] = e.descriptor.addr;
        break;
      }
    }
    out.push_back(e);
    return out.size() >= config_.view_size;
  };
  if (runs_ordered) {
    // One linear three-way merge.
    std::uint32_t head[3] = {runs[0], runs[1], runs[2]};
    for (;;) {
      int next = -1;
      for (int r = 0; r < 3; ++r) {
        if (head[r] < runs[r + 1] && (next < 0 || before(head[r], head[next]))) next = r;
      }
      if (next < 0 || take(head[next]++)) break;
    }
  } else {
    // The initial seeded view, or a message that is out of order.
    std::vector<std::uint32_t>& order = s.order;
    order.resize(cand_end);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), before);
    for (const std::uint32_t k : order) {
      if (take(k)) break;
    }
  }
  view_.assign(out.begin(), out.end());
}

std::unique_ptr<NewscastMessage> NewscastProtocol::outgoing(Context& ctx,
                                                            bool is_request) const {
  auto msg = std::make_unique<NewscastMessage>(is_request);
  msg->entries.reserve(view_.size() + 1);
  msg->entries.assign(view_.begin(), view_.end());
  msg->entries.push_back({self_, ctx.now()});
  return msg;
}

}  // namespace bsvc
