// Whole-stack benchmark driver. Runs one named workload once and prints one
// JSON object on stdout: host timings, the simulated outcome (convergence
// series, traffic, KV and broadcast results, registry counters) and, in the
// traced build, the benchmark's own spans, the engine's span and profiler
// summaries and the allocation census. perfbench/run.py repeats it, checks
// the outputs and reduces them to the benchmark's metrics.
//
// Workloads (see perfbench/README.md for why each exists):
//   converge  N=2^13, no faults, no KV traffic; stops at perfect tables.
//   serve     N=2^12 converges, then serves a read-heavy KV stream and
//             prefix broadcasts on the converged overlay.
//   hostile   N=2^12, 20% loss, 1%/cycle fail+join churn, 5% Byzantine
//             poisoners, hardening and eviction on, write-heavy KV traffic
//             with retries, adaptive timeouts and hedged gets; 40 cycles.
//
// Only the simulator's public API is used. Everything here runs on the
// coordinator thread between engine windows, so the trajectory is a pure
// function of (workload, seed) for every shard count.
//
// Usage: perfbench_stack --workload NAME --seed S --shards K
//                        [--spans-out FILE] [--profile-out FILE]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "adversary/byzantine_model.hpp"
#include "core/experiment.hpp"
#include "core/oracle.hpp"
#include "sampling/graph_metrics.hpp"
#include "sim/scenario.hpp"
#include "workload/driver.hpp"

#ifdef PERFBENCH_COUNT_ALLOCS
#include <atomic>

namespace {
// Counts every heap allocation of the traced binary (relaxed: the count is
// read only at engine barriers, when no worker lane runs).
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {
constexpr bool kTraced = true;
std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace
#else
namespace {
constexpr bool kTraced = false;
std::uint64_t alloc_count() { return 0; }
}  // namespace
#endif

namespace {

using namespace bsvc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- the benchmark's own spans ----------------------------------------------

// One span around one call into a layer's public API. Kept in memory and
// written when the run ends; the parent link lets run.py derive self time.
struct SpanRecord {
  const char* name;
  const char* layer;
  int parent;
  double start;
  double end;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

  int open(const char* name, const char* layer) {
    if (!on_) return -1;
    spans_.push_back({name, layer, current_, seconds_since(t0_), -1.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = seconds_since(t0_);
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point t0_;
  int current_ = -1;
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name, const char* layer)
      : tracer_(tracer), id_(tracer.open(name, layer)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- host measurements --------------------------------------------------------

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5\n", f) >= 0;
  std::fclose(f);
  return ok;
}

std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kib) * 1024;
}

// --- workload definitions -----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t shards = 1;
  std::string spans_out;
  std::string profile_out;
};

struct Plan {
  std::size_t n = 0;
  std::size_t max_cycles = 0;     // measured-cycle cap
  bool stop_at_convergence = false;
  bool serve = false;             // KV + casts start once converged
  bool hostile = false;
};

std::optional<Plan> plan_of(const std::string& name) {
  Plan p;
  if (name == "converge") {
    p.n = std::size_t{1} << 13;
    p.max_cycles = 60;
    p.stop_at_convergence = true;
  } else if (name == "serve") {
    p.n = std::size_t{1} << 12;
    p.max_cycles = 40;  // bootstrap cap; serving cycles come on top
    p.serve = true;
  } else if (name == "hostile") {
    p.n = std::size_t{1} << 12;
    p.max_cycles = 40;
    p.hostile = true;
  } else {
    return std::nullopt;
  }
  return p;
}

// Everything setup builds. Declaration order is destruction order in
// reverse: the adversary and the experiment go before the stack they use.
struct Deployment {
  std::unique_ptr<WorkloadStack> stack;
  std::unique_ptr<BootstrapExperiment> exp;
  std::unique_ptr<ByzantineModel> adversary;
};

// Setups per run; setup_s is their median.
constexpr std::size_t kSetups = 5;
// Hostile workload timing, in cycles after the bootstrap epoch.
constexpr std::size_t kHostileKvFrom = 2;
constexpr std::size_t kHostileKvTo = 24;
constexpr std::size_t kHostileCasts[] = {10, 20, 30};
// Serve workload: KV issue window and quiesce tail after it, in cycles,
// and one broadcast every kServeCastEvery serving cycles.
constexpr std::size_t kServeCycles = 20;
constexpr std::size_t kServeTailCycles = 3;
constexpr std::size_t kServeCastEvery = 4;
// create_message timing sample: this many nodes, spread over the address space.
constexpr std::size_t kCreateMessageSample = 64;
// Allocation census steady window starts this many cycles after the epoch.
constexpr std::size_t kSteadyWarmCycles = 4;
// The traced binary's mid-run create_message sample follows this cycle
// (about half way to convergence on converge and serve).
constexpr std::size_t kMidSampleCycle = 8;

ExperimentConfig experiment_config(const Plan& plan, const Options& o) {
  ExperimentConfig cfg;
  cfg.n = plan.n;
  cfg.seed = o.seed;
  cfg.shards = o.shards;
  cfg.max_cycles = plan.max_cycles;
  cfg.stop_at_convergence = plan.stop_at_convergence;
  cfg.spans = kTraced;
  if (kTraced) cfg.profile_path = o.profile_out;
  if (plan.hostile) {
    cfg.drop_probability = 0.2;
    cfg.churn_fail_rate = 0.01;
    cfg.churn_join_rate = 0.01;
    cfg.bootstrap.evict_unresponsive = true;
    cfg.bootstrap.harden = true;
    cfg.newscast.harden = true;
  }
  return cfg;
}

WorkloadParams workload_params(const Plan& plan) {
  WorkloadParams wp;
  wp.replicas = 2;
  if (plan.hostile) {
    wp.retry = true;
    wp.retry_budget = 3;
    wp.retry_backoff = 1.5;
    wp.adaptive_timeout = true;
    wp.rtt_max_timeout = 2 * kDelta;
    wp.hedge_delay = kDelta / 2;
    wp.cast_retries = 1;
  }
  return wp;
}

DriverConfig driver_config(const Plan& plan, std::uint64_t seed, SimTime from, SimTime to) {
  DriverConfig dc;
  dc.from = from;
  dc.to = to;
  dc.period = kDelta / 4;
  dc.batch = plan.hostile ? 1024 : 4096;
  dc.put_fraction = plan.hostile ? 0.5 : 0.1;
  dc.value_bytes = 64;
  dc.seed = seed ^ 0xD1CEF00Dull;
  return dc;
}

AdversaryPlan adversary_plan(std::uint64_t seed, SimTime epoch) {
  AdversaryPlan ap;
  ap.seed = seed ^ 0xBAD5EED5ull;
  ap.fraction = 0.05;
  ap.window.start = epoch;
  ap.poison = true;
  ap.pool_size = 8;
  ap.eclipse = true;
  ap.spoof = true;
  ap.suppress_probability = 0.3;
  ap.corrupt_probability = 0.05;
  return ap;
}

// --- JSON output --------------------------------------------------------------

class JsonOut {
 public:
  void key(const char* k) {
    sep();
    std::printf("\"%s\":", k);
    fresh_ = true;
  }
  void num(const char* k, double v) {
    key(k);
    if (std::isfinite(v)) {
      std::printf("%.17g", v);
    } else {
      std::printf("null");
    }
    fresh_ = false;
  }
  void u64(const char* k, std::uint64_t v) {
    key(k);
    std::printf("%llu", static_cast<unsigned long long>(v));
    fresh_ = false;
  }
  void str(const char* k, const std::string& v) {
    key(k);
    std::printf("\"%s\"", v.c_str());
    fresh_ = false;
  }
  void pairs(const char* k, const std::vector<std::pair<double, double>>& v) {
    key(k);
    std::printf("[");
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::printf("%s[%.17g,%.17g]", i == 0 ? "" : ",", v[i].first, v[i].second);
    }
    std::printf("]");
    fresh_ = false;
  }
  void begin(const char* k = nullptr) {
    if (k != nullptr) {
      key(k);
    } else {
      sep();
    }
    std::printf("{");
    fresh_ = true;
  }
  void end() {
    std::printf("}");
    fresh_ = false;
  }

 private:
  void sep() {
    if (!fresh_) std::printf(",");
  }
  bool fresh_ = true;
};

using Snapshot = std::map<std::string, double>;

Snapshot snapshot(const Engine& engine) {
  Snapshot s;
  engine.metrics().snapshot([&s](const std::string& name, double v) { s[name] = v; });
  return s;
}

// Times create_message on a fixed node sample without perturbing the run:
// each call draws from the node's protocol RNG (random samples) and adds to
// BootstrapStats, so the RNG is saved and restored around it, and callers
// read the stats before sampling.
std::vector<double> time_create_message(BootstrapExperiment& exp, std::size_t n) {
  Engine& engine = exp.engine();
  std::vector<double> us;
  const std::size_t stride = std::max<std::size_t>(1, n / kCreateMessageSample);
  for (Address a = 0; a < n; a += static_cast<Address>(stride)) {
    if (!engine.is_alive(a)) continue;
    BootstrapProtocol& bp = exp.bootstrap_slot().of(engine, a);
    if (!bp.active()) continue;
    const NodeId peer = engine.id_of(static_cast<Address>((a + 1) % n));
    const Rng saved = engine.node_rng(a);
    const auto t0 = Clock::now();
    auto msg = bp.create_message(peer, true);
    us.push_back(seconds_since(t0) * 1e6);
    msg.reset();
    engine.node_rng(a) = saved;
  }
  return us;
}

int run(const Options& o) {
  const std::optional<Plan> maybe_plan = plan_of(o.workload);
  if (!maybe_plan) {
    std::fprintf(stderr, "unknown workload '%s' (converge, serve, hostile)\n",
                 o.workload.c_str());
    return 2;
  }
  const Plan& plan = *maybe_plan;
  Tracer tr(kTraced);

  // --- setup: network, workload stack and driver wiring, adversary --------
  // Set up kSetups times and report the median; the last deployment runs.
  const ExperimentConfig base = experiment_config(plan, o);
  const SimTime delta = base.bootstrap.delta;
  const SimTime epoch = base.warmup_cycles * delta;
  ExperimentConfig cfg;
  Deployment dep;
  std::vector<double> setup_times;
  bool rss_reset = false;
  int root = -1;
  for (std::size_t i = 0; i < kSetups; ++i) {
    dep = Deployment{};
    if (i + 1 == kSetups) {
      rss_reset = reset_peak_rss();
      root = tr.open("rep", "bench");
    }
    const auto t0 = Clock::now();
    const int sp_setup = i + 1 == kSetups ? tr.open("setup", "setup") : -1;
    cfg = base;
    if (plan.serve || plan.hostile) {
      dep.stack = std::make_unique<WorkloadStack>(workload_params(plan));
      cfg.node_extension = dep.stack->node_extension();
    }
    dep.exp = std::make_unique<BootstrapExperiment>(cfg);
    if (dep.stack) {
      dep.stack->log().bind_registry(dep.exp->engine().metrics());
      if (plan.hostile) dep.stack->log().bind_retry_registry(dep.exp->engine().metrics());
    }
    if (plan.hostile) {
      dep.adversary = install_adversary_plan(dep.exp->engine(), adversary_plan(o.seed, epoch));
    }
    tr.close(sp_setup);
    setup_times.push_back(seconds_since(t0));
  }
  std::sort(setup_times.begin(), setup_times.end());
  const double setup_s = setup_times[setup_times.size() / 2];
  BootstrapExperiment& exp = *dep.exp;
  Engine& engine = exp.engine();
  WorkloadStack* stack = dep.stack.get();
  ByzantineModel* adversary = dep.adversary.get();

  // --- run: warm-up, bootstrap phase, serving window, quiesce tail --------
  const auto t_run = Clock::now();
  const int sp_run = tr.open("run", "bench");
  double run_until_s = 0.0;
  const auto run_until = [&](SimTime t) {
    const Span span(tr, "run_until", "sim");
    const auto t0 = Clock::now();
    engine.run_until(t);
    run_until_s += seconds_since(t0);
  };

  run_until(epoch);
  engine.reset_traffic();
  const BootstrapStats stats_epoch = exp.current_stats();
  const Snapshot reg_epoch = snapshot(engine);
  const std::uint64_t events_epoch = engine.events_dispatched();
  const std::uint64_t allocs_epoch = alloc_count();
  std::uint64_t allocs_steady0 = allocs_epoch;
  std::uint64_t exchanges_steady0 = 0;
  std::uint64_t allocs_excluded = 0;  // create_message samples taken mid-run

  std::optional<WorkloadDriver> driver;
  if (plan.hostile) {
    {
      const Span span(tr, "schedule_churn", "sim");
      ChurnConfig cc;
      cc.from = epoch;
      cc.to = epoch + plan.max_cycles * delta;
      cc.period = delta;
      cc.fail_rate = cfg.churn_fail_rate;
      cc.join_rate = cfg.churn_join_rate;
      schedule_churn(engine, cc, [&exp](Engine&) { return exp.make_node(); });
    }
    const Span span(tr, "driver_start", "workload");
    driver.emplace(*stack, driver_config(plan, o.seed, epoch + kHostileKvFrom * delta,
                                         epoch + kHostileKvTo * delta));
    driver->start(engine);
    for (const std::size_t c : kHostileCasts) driver->schedule_cast(engine, epoch + c * delta);
  }

  const bool churn = plan.hostile;
  std::optional<ConvergenceOracle> oracle;
  const auto build_oracle = [&] {
    const Span span(tr, "oracle_build", "core");
    oracle.emplace(engine, cfg.bootstrap, exp.bootstrap_slot());
  };
  build_oracle();

  std::vector<std::pair<double, double>> series;  // (missing_leaf, missing_prefix)
  double node_cycles = 0.0;
  int converged_cycle = -1;
  std::size_t end_cycle = plan.max_cycles;
  std::vector<double> create_us;
  for (std::size_t cycle = 0; cycle < end_cycle; ++cycle) {
    run_until(epoch + (cycle + 1) * delta);
    if (churn) build_oracle();
    ConvergenceMetrics m;
    {
      const Span span(tr, "oracle_measure", "core");
      m = oracle->measure(churn);
    }
    series.emplace_back(m.missing_leaf_fraction(), m.missing_prefix_fraction());
    node_cycles += static_cast<double>(engine.alive_count());
    if (cycle + 1 == kSteadyWarmCycles) {
      allocs_steady0 = alloc_count();
      const BootstrapStats s = exp.current_stats();
      exchanges_steady0 = s.requests_sent + s.replies_sent;
    }
    if (kTraced && cycle == kMidSampleCycle) {
      // Mid-run create_message sample (the traced binary only).
      const Span span(tr, "create_message", "core");
      const std::uint64_t a0 = alloc_count();
      const auto us = time_create_message(exp, plan.n);
      create_us.insert(create_us.end(), us.begin(), us.end());
      allocs_excluded += alloc_count() - a0;
    }
    if (converged_cycle < 0 && m.converged()) {
      converged_cycle = static_cast<int>(cycle);
      if (plan.stop_at_convergence) break;
      if (plan.serve) {
        const Span span(tr, "driver_start", "workload");
        const SimTime from = epoch + (cycle + 1) * delta;
        driver.emplace(*stack,
                       driver_config(plan, o.seed, from, from + kServeCycles * delta));
        driver->start(engine);
        for (std::size_t c = 0; c < kServeCycles; c += kServeCastEvery) {
          driver->schedule_cast(engine, from + c * delta + delta / 2);
        }
        end_cycle = cycle + 1 + kServeCycles + kServeTailCycles;
      }
    }
  }
  WorkloadDriver::CastCoverage cov;
  if (driver) {
    const Span span(tr, "verify_casts", "workload");
    cov = driver->verify_casts(engine);
  }
  tr.close(sp_run);
  const double wall_s = seconds_since(t_run);

  // --- post-run census (outside wall_s). Counters are read first: the
  // census allocates, and create_message adds to BootstrapStats.
  const std::uint64_t allocs_end = alloc_count() - allocs_excluded;
  const BootstrapStats stats_end = exp.current_stats();
  const Snapshot reg_end = snapshot(engine);
  const TrafficStats traffic = engine.traffic();
  const std::uint64_t events = engine.events_dispatched();

  // Converge: count nodes whose tables are not perfect (0 once converged;
  // the oracle's global sums must agree). Valid without churn or adversary.
  std::uint64_t imperfect = 0;
  if (plan.stop_at_convergence) {
    const Span span(tr, "per_node_check", "core");
    for (const NodeDescriptor& d : oracle->sorted_members()) {
      const BootstrapProtocol& bp = exp.bootstrap_of(d.addr);
      if (!bp.active()) {
        ++imperfect;
        continue;
      }
      std::vector<NodeId> want = oracle->perfect_leaf_ids(d.addr);
      std::vector<NodeId> have;
      for (const NodeDescriptor& e : bp.leaf_set().all()) have.push_back(e.id);
      std::sort(want.begin(), want.end());
      std::sort(have.begin(), have.end());
      if (want != have || bp.prefix_table().filled() < oracle->perfect_prefix_total(d.addr)) {
        ++imperfect;
      }
    }
  }

  WorkloadSummary wl;
  std::uint64_t pending_alive = 0;
  std::uint64_t pending_dead = 0;
  if (stack) {
    const Span span(tr, "summary", "workload");
    wl = stack->log().summary();
    for (Address a = 0; a < engine.node_count(); ++a) {
      const std::uint64_t p = stack->service(engine, a).pending_requests();
      (engine.is_alive(a) ? pending_alive : pending_dead) += p;
    }
  }
  ViewGraphStats vg;
  {
    const Span span(tr, "view_graph", "sampling");
    vg = measure_view_graph(engine, exp.newscast_slot());
  }
  double controlled = 0.0;
  if (adversary) {
    const Span span(tr, "controlled_leaf", "adversary");
    std::size_t honest = 0;
    for (Address a = 0; a < engine.node_count(); ++a) {
      if (!engine.is_alive(a) || adversary->is_adversary(a)) continue;
      const BootstrapProtocol& bp = exp.bootstrap_of(a);
      if (!bp.active()) continue;
      ++honest;
      controlled += adversary->controlled_fraction(bp.leaf_set().all());
    }
    controlled = honest == 0 ? 0.0 : controlled / static_cast<double>(honest);
  }
  if (kTraced) {
    const Span span(tr, "create_message", "core");
    const auto us = time_create_message(exp, plan.n);
    create_us.insert(create_us.end(), us.begin(), us.end());
  }
  const std::uint64_t peak_rss = peak_rss_bytes();
  tr.close(root);

  // --- report -------------------------------------------------------------
  JsonOut j;
  j.begin();
  j.str("workload", o.workload);
  j.u64("seed", o.seed);
  j.u64("shards", o.shards);
  j.u64("n", plan.n);
  j.u64("traced", kTraced ? 1 : 0);
  j.begin("host");
  j.num("setup_s", setup_s);
  j.num("setup_last_s", setup_times.back());
  j.num("wall_s", wall_s);
  j.num("run_until_s", run_until_s);
  j.u64("peak_rss_bytes", peak_rss);
  j.u64("rss_reset", rss_reset ? 1 : 0);
  j.end();

  j.begin("sim");
  j.u64("cycles", series.size());
  j.num("converged_cycle", converged_cycle);
  j.u64("events", events);
  j.u64("events_phase", events - events_epoch);
  j.num("node_cycles", node_cycles);
  j.u64("alive_end", engine.alive_count());
  j.u64("imperfect_nodes", imperfect);
  j.pairs("series", series);
  j.begin("traffic");
  j.u64("sent", traffic.messages_sent);
  j.u64("dropped", traffic.messages_dropped);
  j.u64("to_dead", traffic.messages_to_dead);
  j.u64("delivered", traffic.messages_delivered);
  j.u64("bytes", traffic.bytes_sent);
  j.end();
  j.begin("bootstrap");
  j.u64("requests", stats_end.requests_sent - stats_epoch.requests_sent);
  j.u64("replies", stats_end.replies_sent - stats_epoch.replies_sent);
  j.u64("entries", stats_end.entries_sent - stats_epoch.entries_sent);
  j.u64("payload_bytes", stats_end.payload_bytes_sent - stats_epoch.payload_bytes_sent);
  j.u64("max_message_bytes", stats_end.max_message_bytes);
  j.u64("select_peer_empty", stats_end.select_peer_empty - stats_epoch.select_peer_empty);
  j.end();
  j.begin("kv");
  j.u64("puts", wl.puts);
  j.u64("gets", wl.gets);
  j.u64("answered", wl.answered());
  j.u64("get_miss", wl.get_miss);
  j.u64("timeouts", wl.timeouts);
  j.u64("unroutable", wl.unroutable);
  j.u64("pending_alive", pending_alive);
  j.u64("pending_dead", pending_dead);
  j.u64("rtt_count", wl.rtt_count);
  j.num("rtt_p50", wl.rtt_p50);
  j.num("rtt_p99", wl.rtt_p99);
  j.num("rtt_max", wl.rtt_max);
  j.num("hops_mean", wl.hops_mean);
  j.u64("kv_retries", wl.kv_retries);
  j.u64("hedges_sent", wl.hedges_sent);
  j.u64("hedge_wins", wl.hedge_wins);
  j.u64("casts", cov.casts);
  j.u64("cast_expected", cov.expected);
  j.u64("cast_reached", cov.reached);
  j.u64("cast_duplicates", cov.duplicates);
  j.u64("cast_forwards", wl.cast_forwards);
  j.end();
  j.begin("view_graph");
  j.num("indegree_stddev", vg.indegree_stddev);
  j.num("dead_entry_frac", vg.dead_entry_fraction);
  j.end();
  j.num("controlled_leaf_frac", controlled);
  j.begin("msgs_phase");
  for (const auto& [name, v] : reg_end) {
    if (name.rfind("msg.sent.", 0) != 0) continue;
    const auto it = reg_epoch.find(name);
    j.num(name.c_str() + std::strlen("msg.sent."), v - (it == reg_epoch.end() ? 0.0 : it->second));
  }
  j.end();
  j.begin("registry");
  for (const auto& [name, v] : reg_end) j.num(name.c_str(), v);
  j.end();
  j.end();  // sim

  if (kTraced) {
    j.begin("trace");
    const std::uint64_t exchanges_phase = (stats_end.requests_sent + stats_end.replies_sent) -
                                          (stats_epoch.requests_sent + stats_epoch.replies_sent);
    const std::uint64_t exchanges_steady =
        stats_end.requests_sent + stats_end.replies_sent - exchanges_steady0;
    j.u64("allocs_phase", allocs_end - allocs_epoch);
    j.u64("exchanges_phase", exchanges_phase);
    j.u64("allocs_steady", allocs_end - allocs_steady0);
    j.u64("exchanges_steady", exchanges_steady);
    std::sort(create_us.begin(), create_us.end());
    j.u64("create_message_samples", create_us.size());
    j.num("create_message_us", create_us.empty() ? 0.0 : create_us[create_us.size() / 2]);
    if (const obs::SpanLog* log = engine.span_log(); log != nullptr) {
      const obs::SpanSummary s = log->summary();
      j.begin("spans");
      j.u64("opened", s.opened);
      j.u64("closed", s.closed);
      j.u64("in_flight", s.in_flight);
      j.u64("overflow", s.overflow_dropped);
      j.u64("stray_closes", s.stray_closes);
      j.u64("answered", s.answered);
      j.u64("timeout", s.timeout);
      j.num("rtt_p50", s.rtt_p50);
      j.end();
    }
    if (const obs::EngineProfiler* prof = engine.profiler(); prof != nullptr) {
      const obs::ProfileSummary p = prof->summary();
      j.begin("profile");
      j.u64("windows", p.windows);
      j.num("wall_s", p.wall_seconds);
      j.num("dispatch_s", p.dispatch_seconds);
      j.num("drain_s", p.drain_seconds);
      j.num("stall_s", p.stall_seconds);
      j.num("idle_s", p.idle_seconds);
      j.num("barrier_stall_frac", p.barrier_stall_fraction);
      j.num("mailbox_per_window", p.mailbox_mean_per_window);
      j.num("queue_depth_mean", p.queue_depth_mean);
      j.end();
      if (!o.profile_out.empty() && !prof->write_chrome_trace(o.profile_out)) {
        std::fprintf(stderr, "cannot write profile trace %s\n", o.profile_out.c_str());
        return 1;
      }
    }
    j.end();  // trace
  }
  j.end();
  std::printf("\n");

  if (kTraced && !o.spans_out.empty()) {
    std::FILE* f = std::fopen(o.spans_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write spans file %s\n", o.spans_out.c_str());
      return 1;
    }
    const auto& spans = tr.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"layer\":\"%s\","
                   "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   i, s.parent, s.name, s.layer, s.start, s.end);
    }
    std::fclose(f);
  }
  return 0;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed" && parse_u64(value, u)) {
      o.seed = u;
    } else if (flag == "--shards" && parse_u64(value, u) && u >= 1) {
      o.shards = static_cast<std::size_t>(u);
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else if (flag == "--profile-out") {
      o.profile_out = value;
    } else {
      std::fprintf(stderr, "bad flag %s %s\n", flag.c_str(), value);
      return 2;
    }
  }
  return run(o);
}
