#include "core/oracle.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/experiment.hpp"

namespace bsvc {
namespace {

ExperimentConfig base_config(std::size_t n, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.sampler = SamplerKind::Oracle;
  cfg.warmup_cycles = 0;
  cfg.max_cycles = 80;
  return cfg;
}

TEST(Oracle, EverythingMissingBeforeActivation) {
  BootstrapExperiment exp(base_config(64, 1));
  // Before run(): protocols exist but have not initialized tables.
  const ConvergenceOracle oracle(exp.engine(), exp.config().bootstrap, exp.bootstrap_slot());
  const auto m = oracle.measure();
  EXPECT_GT(m.leaf_perfect, 0u);
  EXPECT_GT(m.prefix_perfect, 0u);
  EXPECT_EQ(m.leaf_present, 0u);
  EXPECT_EQ(m.prefix_present, 0u);
  EXPECT_DOUBLE_EQ(m.missing_leaf_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(m.missing_prefix_fraction(), 1.0);
  EXPECT_FALSE(m.converged());
}

TEST(Oracle, ZeroMissingAtConvergence) {
  BootstrapExperiment exp(base_config(256, 2));
  const auto result = exp.run();
  ASSERT_GE(result.converged_cycle, 0);
  const ConvergenceOracle oracle(exp.engine(), exp.config().bootstrap, exp.bootstrap_slot());
  const auto m = oracle.measure();
  EXPECT_TRUE(m.converged());
  EXPECT_EQ(m.leaf_present, m.leaf_perfect);
  EXPECT_EQ(m.prefix_present, m.prefix_perfect);
}

TEST(Oracle, MetricsDecreaseOverTime) {
  BootstrapExperiment exp(base_config(512, 3));
  std::vector<double> leaf_curve, prefix_curve;
  exp.run([&](std::size_t, const ConvergenceMetrics& m) {
    leaf_curve.push_back(m.missing_leaf_fraction());
    prefix_curve.push_back(m.missing_prefix_fraction());
  });
  ASSERT_GE(leaf_curve.size(), 5u);
  // Not necessarily monotone cycle-by-cycle, but must collapse overall.
  EXPECT_GT(leaf_curve.front(), 0.5);
  EXPECT_EQ(leaf_curve.back(), 0.0);
  EXPECT_EQ(prefix_curve.back(), 0.0);
  // Front half strictly above back half on average.
  const auto mean = [](const std::vector<double>& v, std::size_t from, std::size_t to) {
    double s = 0.0;
    for (std::size_t i = from; i < to; ++i) s += v[i];
    return s / static_cast<double>(to - from);
  };
  EXPECT_GT(mean(leaf_curve, 0, leaf_curve.size() / 2),
            mean(leaf_curve, leaf_curve.size() / 2, leaf_curve.size()));
}

TEST(Oracle, PerfectLeafIdsMatchMembership) {
  BootstrapExperiment exp(base_config(64, 4));
  const ConvergenceOracle oracle(exp.engine(), exp.config().bootstrap, exp.bootstrap_slot());
  const auto& members = oracle.sorted_members();
  ASSERT_EQ(members.size(), 64u);
  const auto ids = oracle.perfect_leaf_ids(members[10].addr);
  EXPECT_EQ(ids.size(), exp.config().bootstrap.c);
  // All perfect entries are real member IDs, none is the node itself.
  for (const NodeId id : ids) {
    EXPECT_NE(id, members[10].id);
    bool found = false;
    for (const auto& m : members) found |= m.id == id;
    EXPECT_TRUE(found);
  }
}

TEST(Oracle, LivenessCheckDiscountsDeadEntries) {
  BootstrapExperiment exp(base_config(256, 5));
  const auto result = exp.run();
  ASSERT_GE(result.converged_cycle, 0);
  // Kill a quarter of the nodes; entries pointing at them become stale.
  auto& engine = exp.engine();
  for (Address a = 0; a < 64; ++a) engine.kill_node(a);
  const ConvergenceOracle oracle(engine, exp.config().bootstrap, exp.bootstrap_slot());
  const auto strict = oracle.measure(/*check_liveness=*/true);
  const auto lax = oracle.measure(/*check_liveness=*/false);
  // The lax count includes dead entries, the strict one does not.
  EXPECT_LE(strict.prefix_present, lax.prefix_present);
  EXPECT_GT(strict.missing_prefix_fraction(), 0.0);
  // Leaf metric naturally discounts dead perfect-entries (they are no longer
  // perfect once the membership shrank).
  EXPECT_GT(strict.leaf_perfect, 0u);
}

TEST(Oracle, OwnerLookupAgreesWithPerfectTables) {
  BootstrapExperiment exp(base_config(128, 6));
  const ConvergenceOracle oracle(exp.engine(), exp.config().bootstrap, exp.bootstrap_slot());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const NodeId key = rng.next_u64();
    EXPECT_EQ(oracle.owner_of(key).id, oracle.perfect().owner_of(key).id);
  }
}

// --- measure() on the engine's lanes --------------------------------------
//
// measure() splits its rank loop into one range per engine lane. The same
// trajectory at K = 1..4 must give the same metrics every cycle: the full
// oracle under churn (check_liveness), and subset (partition) oracles with
// and without the liveness check, one of them smaller than K.

struct LaneSample {
  ConvergenceMetrics full;
  ConvergenceMetrics half_strict;
  ConvergenceMetrics half_lax;
  ConvergenceMetrics tiny;
};

void expect_same(const ConvergenceMetrics& got, const ConvergenceMetrics& want,
                 const char* what, std::size_t k, std::size_t cycle) {
  EXPECT_EQ(got.leaf_perfect, want.leaf_perfect) << what << " K=" << k << " cycle " << cycle;
  EXPECT_EQ(got.leaf_present, want.leaf_present) << what << " K=" << k << " cycle " << cycle;
  EXPECT_EQ(got.prefix_perfect, want.prefix_perfect) << what << " K=" << k << " cycle " << cycle;
  EXPECT_EQ(got.prefix_present, want.prefix_present) << what << " K=" << k << " cycle " << cycle;
}

std::vector<LaneSample> sample_at_lanes(std::size_t shards) {
  ExperimentConfig cfg = base_config(384, 8);
  cfg.shards = shards;
  cfg.max_cycles = 14;
  cfg.stop_at_convergence = false;
  cfg.churn_fail_rate = 0.02;
  cfg.churn_join_rate = 0.02;
  // The sampler probe measures too, from a scheduled call at a barrier.
  cfg.sample_every_cycles = 1;
  BootstrapExperiment exp(cfg);
  std::vector<LaneSample> samples;
  // The half oracle keeps its cycle-0 membership, so members die under it
  // and the liveness check has stale entries to discount.
  std::optional<ConvergenceOracle> half_oracle;
  exp.run([&](std::size_t, const ConvergenceMetrics& m) {
    const Engine& engine = exp.engine();
    std::vector<NodeDescriptor> half;
    std::vector<NodeDescriptor> tiny;
    for (const Address a : engine.alive_addresses()) {
      if (a % 2 == 0) half.push_back(engine.descriptor_of(a));
      if (tiny.size() < 3) tiny.push_back(engine.descriptor_of(a));
    }
    if (!half_oracle) half_oracle.emplace(engine, half, cfg.bootstrap, exp.bootstrap_slot());
    const ConvergenceOracle tiny_oracle(engine, tiny, cfg.bootstrap, exp.bootstrap_slot());
    samples.push_back({m, half_oracle->measure(/*check_liveness=*/true),
                       half_oracle->measure(/*check_liveness=*/false),
                       tiny_oracle.measure(/*check_liveness=*/true)});
  });
  return samples;
}

TEST(OracleLanes, MetricsMatchAcrossLaneCounts) {
  const std::vector<LaneSample> serial = sample_at_lanes(1);
  ASSERT_EQ(serial.size(), 14u);
  // Mid-bootstrap under churn: entries are still missing, some are stale.
  EXPECT_GT(serial.back().full.leaf_present, 0u);
  EXPECT_FALSE(serial.back().full.converged());
  EXPECT_LT(serial.back().half_strict.prefix_present, serial.back().half_lax.prefix_present);
  for (const std::size_t k : {2u, 3u, 4u}) {
    const std::vector<LaneSample> lanes = sample_at_lanes(k);
    ASSERT_EQ(lanes.size(), serial.size()) << "K=" << k;
    for (std::size_t c = 0; c < serial.size(); ++c) {
      expect_same(lanes[c].full, serial[c].full, "full", k, c);
      expect_same(lanes[c].half_strict, serial[c].half_strict, "half strict", k, c);
      expect_same(lanes[c].half_lax, serial[c].half_lax, "half lax", k, c);
      expect_same(lanes[c].tiny, serial[c].tiny, "tiny", k, c);
    }
  }
}

}  // namespace
}  // namespace bsvc
