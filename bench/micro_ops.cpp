// Data-structure level microbenchmarks (google-benchmark): the per-message
// costs that dominate a simulated cycle — UPDATELEAFSET, UPDATEPREFIXTABLE,
// CREATEMESSAGE, the Pastry next hop — plus the convergence oracle build
// that the experiment harness amortizes across cycles, and the engine hot
// path: the two-tier event queue, payload pooling, the send→dispatch round
// trip and the window primitives.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/leaf_set.hpp"
#include "core/perfect_tables.hpp"
#include "core/prefix_table.hpp"
#include "id/id_generator.hpp"
#include "obs/trace.hpp"
#include "overlay/pastry_router.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/payload.hpp"
#include "tests/test_util.hpp"

namespace bsvc {
namespace {

std::vector<NodeDescriptor> members(std::size_t n) { return test::random_descriptors(n, 42); }

void BM_UpdateLeafSet(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const auto pool = members(4096);
  Rng rng(7);
  LeafSet ls(pool[0].id, 20);
  // Pre-warm with one batch so updates exercise the merge path.
  ls.update(std::span(pool.data() + 1, 20));
  std::vector<NodeDescriptor> batch(batch_size);
  for (auto _ : state) {
    for (auto& d : batch) d = pool[1 + rng.below(pool.size() - 1)];
    ls.update(batch);
    benchmark::DoNotOptimize(ls.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_UpdateLeafSet)->Arg(20)->Arg(60)->Arg(120);

void BM_LeafScanSoA(benchmark::State& state) {
  // The hot ring-distance scan over a leaf set's contiguous NodeId lane (the
  // arena-backed SoA layout): 8 bytes per element, no interleaved addresses.
  const auto n = static_cast<std::size_t>(state.range(0));
  DescriptorArena arena;
  const auto block = arena.allocate(static_cast<std::uint32_t>(n));
  const auto pool = members(n + 1);
  const NodeId pivot = pool[0].id;
  for (std::size_t i = 0; i < n; ++i) {
    arena.ids(block)[i] = pool[i + 1].id;
    arena.addrs(block)[i] = pool[i + 1].addr;
  }
  for (auto _ : state) {
    const NodeId* ids = arena.ids(block);
    NodeId best = ~NodeId{0};
    for (std::size_t i = 0; i < n; ++i) {
      best = std::min(best, successor_distance(pivot, ids[i]));
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LeafScanSoA)->Arg(20)->Arg(256)->Arg(4096);

void BM_ArenaAlloc(benchmark::State& state) {
  // A node's table-construction storage: leaf block (c=20) plus prefix block
  // (first doubling tier), bump-allocated out of a warm DescriptorArena —
  // two pointer bumps, no allocator.
  DescriptorArena arena;
  arena.allocate(20 + 16);  // warm the slabs
  arena.reset();
  for (auto _ : state) {
    const auto leaf = arena.allocate(20);
    const auto prefix = arena.allocate(16);
    benchmark::DoNotOptimize(arena.ids(leaf));
    benchmark::DoNotOptimize(arena.ids(prefix));
    arena.reset();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ArenaAlloc);

void BM_UpdatePrefixTable(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const auto pool = members(4096);
  Rng rng(8);
  PrefixTable table(pool[0].id, DigitConfig{4}, 3);
  std::vector<NodeDescriptor> batch(batch_size);
  for (auto _ : state) {
    state.PauseTiming();
    PrefixTable fresh(pool[0].id, DigitConfig{4}, 3);
    for (auto& d : batch) d = pool[1 + rng.below(pool.size() - 1)];
    state.ResumeTiming();
    DescriptorList list(batch.begin(), batch.end());
    benchmark::DoNotOptimize(fresh.insert_all(list));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_UpdatePrefixTable)->Arg(60)->Arg(200);

void BM_PrefixTableInsertSaturated(benchmark::State& state) {
  // Inserts into a saturated table: the common steady-state case where most
  // inserts are rejected after the cell-range binary search.
  const auto pool = members(8192);
  PrefixTable table(pool[0].id, DigitConfig{4}, 3);
  DescriptorList all(pool.begin() + 1, pool.end());
  table.insert_all(all);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.insert(pool[1 + rng.below(pool.size() - 1)]));
  }
}
BENCHMARK(BM_PrefixTableInsertSaturated);

void BM_PrefixTableInsertAllSaturated(benchmark::State& state) {
  // UPDATEPREFIXTABLE's real shape: one received message's ~108 descriptors
  // merged into a saturated table in one insert_all call. Items are
  // candidates, so the figure compares with the single-insert case above.
  constexpr std::size_t kBatch = 108;
  const auto pool = members(8192);
  PrefixTable table(pool[0].id, DigitConfig{4}, 3);
  DescriptorList all(pool.begin() + 1, pool.end());
  table.insert_all(all);
  Rng rng(9);
  std::vector<DescriptorList> batches(64);
  for (auto& batch : batches) {
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) batch.push_back(pool[1 + rng.below(pool.size() - 1)]);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.insert_all(batches[next]));
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_PrefixTableInsertAllSaturated);

void BM_LeafSetUpdateSaturated(benchmark::State& state) {
  // UPDATELEAFSET's real shape: a full c = 20 set already holding its true
  // ring neighbours, and one received message of ~109 descriptors (the
  // sender's ring neighbourhood, which overlaps the set, plus prefix-table
  // and sampled entries from anywhere), the same shape as
  // BM_PrefixTableInsertAllSaturated. Items are incoming descriptors.
  constexpr std::size_t kBatch = 109;
  constexpr std::size_t kNear = 20;
  const auto pool = members(8192);
  const NodeId own = pool[0].id;
  LeafSet ls(own, 20);
  ls.update(std::span(pool.data() + 1, pool.size() - 1));
  DescriptorList near(pool.begin() + 1, pool.end());
  std::sort(near.begin(), near.end(), [own](const NodeDescriptor& a, const NodeDescriptor& b) {
    return closer_on_ring(own, a.id, b.id);
  });
  near.resize(2 * kNear);
  Rng rng(11);
  std::vector<DescriptorList> batches(64);
  for (auto& batch : batches) {
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kNear; ++i) batch.push_back(near[rng.below(near.size())]);
    while (batch.size() < kBatch) batch.push_back(pool[1 + rng.below(pool.size() - 1)]);
    rng.shuffle(batch);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    ls.update(batches[next]);
    benchmark::DoNotOptimize(ls.size());
    next = (next + 1) % batches.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_LeafSetUpdateSaturated);

void BM_RingSortByDistance(benchmark::State& state) {
  // The dominant kernel of CREATEMESSAGE: ordering the candidate union by
  // directed distance around a pivot.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pool = members(n + 1);
  std::vector<NodeDescriptor> scratch(pool.begin() + 1, pool.end());
  const NodeId pivot = pool[0].id;
  for (auto _ : state) {
    std::vector<NodeDescriptor> copy = scratch;
    std::sort(copy.begin(), copy.end(), [pivot](const NodeDescriptor& a, const NodeDescriptor& b) {
      return successor_distance(pivot, a.id) < successor_distance(pivot, b.id);
    });
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RingSortByDistance)->Arg(64)->Arg(256)->Arg(1024);

void BM_PerfectTablesBuild(benchmark::State& state) {
  // The oracle's trie walk over the sorted ID set (built once per membership
  // epoch in experiments).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pool = members(n);
  BootstrapConfig cfg;
  for (auto _ : state) {
    PerfectTables truth(pool, cfg);
    benchmark::DoNotOptimize(truth.perfect_prefix_sum());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PerfectTablesBuild)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16);

void BM_CommonPrefixDigits(benchmark::State& state) {
  Rng rng(10);
  const DigitConfig cfg{4};
  NodeId x = rng.next_u64();
  for (auto _ : state) {
    const NodeId y = rng.next_u64();
    benchmark::DoNotOptimize(common_prefix_digits(x, y, cfg));
    x ^= y;
  }
}
BENCHMARK(BM_CommonPrefixDigits);

void BM_IdGeneration(benchmark::State& state) {
  IdGenerator gen{Rng(11)};
  for (auto _ : state) benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_IdGeneration);

// ---------------------------------------------------------------------------
// Engine event-queue hot path. The workload models a simulated cycle: a live
// set of `range(0)` pending events, each pop schedules a successor a random
// in-cycle delay ahead (so the queue stays at its steady-state size, as it
// does mid-simulation).

void BM_EventQueueTwoTier(benchmark::State& state) {
  // The engine's content-addressed ordering keys (random origin << 40 |
  // counter): same-tick pushes arrive out of key order, so the per-bucket
  // lazy sort does real work.
  const auto live = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  TwoTierQueue queue;
  std::uint64_t counter = 0;
  const auto key = [&rng, &counter, live] { return (rng.below(live) << 40) | counter++; };
  for (std::size_t i = 0; i < live; ++i) {
    SlimEvent ev{};
    ev.time = rng.below(kDelta);
    ev.seq = key();
    queue.push(ev);
  }
  for (auto _ : state) {
    SlimEvent ev{};
    queue.pop_if_at_most(~SimTime{0}, ev);
    SlimEvent next{};
    next.time = ev.time + 1 + rng.below(kDelta);
    next.seq = key();
    queue.push(next);
    benchmark::DoNotOptimize(ev.time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueTwoTier)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

struct BenchPayload final : Payload {
  std::size_t wire_bytes() const override { return 64; }
  const char* type_name() const override { return "BenchPayload"; }
};

void BM_PayloadPoolStoreTake(benchmark::State& state) {
  // The send path: the payload's shared ref parks in the slot pool while its
  // slim event is queued, then is taken back at dispatch.
  SlotPool<PayloadRef> pool;
  for (auto _ : state) {
    const std::uint32_t slot = pool.store(make_payload<BenchPayload>());
    auto payload = pool.take(slot);
    benchmark::DoNotOptimize(payload.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PayloadPoolStoreTake);

void BM_PayloadRefShare(benchmark::State& state) {
  // What fault-layer duplication and multi-delivery cost: a refcount bump,
  // no heap traffic.
  const PayloadRef original = make_payload<BenchPayload>();
  for (auto _ : state) {
    PayloadRef copy = original;  // NOLINT(performance-unnecessary-copy-initialization)
    benchmark::DoNotOptimize(copy.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PayloadRefShare);

void BM_CreateMessageSteadyState(benchmark::State& state) {
  // CREATEMESSAGE on a converged node: one message allocation plus one
  // reserve of its flat entry buffer. Before the flat-buffer refactor this
  // path built ~6 intermediate vectors per call (union, ring copies, per-
  // cell candidate lists, two message parts).
  ExperimentConfig cfg;
  cfg.n = 1 << 10;
  cfg.seed = 99;
  cfg.max_cycles = 60;
  BootstrapExperiment exp(cfg);
  exp.run();
  auto& proto = exp.bootstrap_slot().of(exp.engine(), 0);
  const NodeId peer = exp.engine().id_of(1);
  for (auto _ : state) {
    auto msg = proto.create_message(peer, true);
    benchmark::DoNotOptimize(msg.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CreateMessageSteadyState);

void BM_PastryNextHop(benchmark::State& state) {
  // One routing decision at a converged node, with the liveness predicate
  // the workload layer routes with (a dead entry is skipped). Keys are
  // uniform, so most decisions take a prefix cell; items are decisions.
  ExperimentConfig cfg;
  cfg.n = 1 << 10;
  cfg.seed = 99;
  cfg.max_cycles = 60;
  BootstrapExperiment exp(cfg);
  exp.run();
  const Engine& engine = exp.engine();
  const auto& proto = exp.bootstrap_slot().of(engine, 0);
  const std::function<bool(const NodeDescriptor&)> usable = [&engine](const NodeDescriptor& d) {
    return d.addr < engine.node_count() && engine.is_alive(d.addr);
  };
  Rng rng(13);
  std::vector<NodeId> keys(256);
  for (auto& k : keys) k = rng.next_u64();
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pastry_next_hop(engine.id_of(0), 0, proto.leaf_set(),
                                             proto.prefix_table(), keys[next], usable));
    next = (next + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PastryNextHop);

// Full engine send→window→dispatch round trip, quantifying the window
// machinery and the observability hook overhead (docs/observability.md
// quotes these numbers). First arg: shard count K. K=1: both nodes live in
// the single shard (no mailbox, inline crew). K=2: sender and receiver on
// different shards, so every message crosses a mailbox and each window pays
// a real crew round. Second arg: 0 = null trace sink (the production
// default, where every hook is one pointer test); 1 = a minimal counting
// sink, paying the virtual record() call per hook. At K=1 only one lane
// ever records, so the hook takes the lock-free branch; at K=2 it pays the
// trace mutex, so the traced K=2 minus K=1 overhead is the lock's price.
struct CountingTraceSink final : obs::TraceSink {
  std::uint64_t records = 0;
  void record(const obs::TraceRecord&) override { ++records; }
};

struct SinkProtocol final : Protocol {};

void BM_EngineSendDispatch(benchmark::State& state) {
  Engine engine(13, TransportConfig{}, static_cast<std::size_t>(state.range(0)));
  const Address a = engine.add_node(1);
  const Address b = engine.add_node(2);
  engine.attach(a, std::make_unique<SinkProtocol>());
  engine.attach(b, std::make_unique<SinkProtocol>());
  engine.start_node(a);
  engine.start_node(b);
  engine.run_all();
  CountingTraceSink sink;
  if (state.range(1) != 0) engine.set_trace_sink(&sink);
  for (auto _ : state) {
    engine.send_message(a, b, 0, std::make_unique<BenchPayload>());
    engine.run_all();
    benchmark::DoNotOptimize(engine.events_dispatched());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineSendDispatch)->Args({1, 0})->Args({1, 1})->Args({2, 0})->Args({2, 1});

// ---------------------------------------------------------------------------
// Window primitives (docs/architecture.md#sharded-execution): the per-window
// costs the conservative time window must amortize.

void BM_WindowCrewRound(benchmark::State& state) {
  // One empty window round: wake the K-1 workers, run a no-op lane each,
  // barrier back to the coordinator. Arg(1) is the inline (no-thread) case.
  // A window is profitable when the events it batches outweigh this floor.
  WindowCrew crew(static_cast<std::size_t>(state.range(0)));
  const std::function<void(std::size_t)> nop = [](std::size_t) {};
  for (auto _ : state) crew.run(nop);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WindowCrewRound)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CrossShardMailbox(benchmark::State& state) {
  // The cross-shard message hand-off, isolated: a source shard buffers
  // `range(0)` sends into its mailbox vector, then the barrier drain moves
  // each into the destination shard's queue with the payload parked in the
  // destination pool — exactly the engine's window phase 2.
  struct MailboxEntry {
    SlimEvent ev;
    PayloadRef payload;
  };
  const auto batch = static_cast<std::size_t>(state.range(0));
  TwoTierQueue queue;
  SlotPool<PayloadRef> pool;
  std::vector<MailboxEntry> mailbox;
  mailbox.reserve(batch);
  const PayloadRef shared = make_payload<BenchPayload>();
  SimTime now = 0;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) {
      SlimEvent ev{};
      ev.time = now + 10;
      ev.seq = counter++;  // content-addressed key, as in the engine
      ev.kind = EventKind::Message;
      mailbox.push_back(MailboxEntry{ev, shared});
    }
    for (auto& entry : mailbox) {
      entry.ev.aux = pool.store(std::move(entry.payload));
      queue.push(entry.ev);
    }
    mailbox.clear();
    SlimEvent ev{};
    while (queue.pop_if_at_most(~SimTime{0}, ev)) {
      benchmark::DoNotOptimize(pool.take(static_cast<std::uint32_t>(ev.aux)).get());
    }
    now += 10;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CrossShardMailbox)->Arg(16)->Arg(256)->Arg(4096);

}  // namespace
}  // namespace bsvc
