// Property test: the SoA/arena-backed LeafSet and PrefixTable must hold
// element-identical contents, in identical iteration order, to the seed
// struct-of-descriptors semantics under any interleaving of insert, evict
// and merge operations. The reference tables (tests/reference_impls.hpp)
// are plain AoS versions (vectors of NodeDescriptor, same spare/top-up
// arithmetic); both implementations are driven with the same seeded random
// operation sequences and compared after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/leaf_set.hpp"
#include "core/prefix_table.hpp"
#include "id/digits.hpp"
#include "id/ring.hpp"
#include "tests/reference_impls.hpp"
#include "tests/test_util.hpp"

namespace bsvc {
namespace {

using RefLeafSet = ref::LeafSet;
using RefPrefixTable = ref::PrefixTable;

// --- Comparison helpers ----------------------------------------------------

void expect_same(DescriptorView actual, const std::vector<NodeDescriptor>& expected,
                 const char* what, std::size_t step) {
  ASSERT_EQ(actual.size(), expected.size()) << what << " size at step " << step;
  std::size_t i = 0;
  // Walk the view's own iteration order — this pins order, not just contents.
  for (const auto& d : actual) {
    EXPECT_EQ(d.id, expected[i].id) << what << "[" << i << "].id at step " << step;
    EXPECT_EQ(d.addr, expected[i].addr) << what << "[" << i << "].addr at step " << step;
    ++i;
  }
}

// --- Drivers ---------------------------------------------------------------

TEST(SoaEquivalence, LeafSetMatchesSeedSemanticsUnderRandomOps) {
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    Rng rng(seed);
    const NodeId own = rng.next_u64();
    const std::size_t c = 2 + rng.below(19);  // odd capacities exercise the float slot
    LeafSet ls(own, c);
    RefLeafSet ref(own, c);
    const auto pool = test::random_descriptors(200, seed * 31 + 1);

    for (std::size_t step = 0; step < 300; ++step) {
      const auto op = rng.below(10);
      if (op < 6) {  // merge a random batch (UPDATELEAFSET)
        std::vector<NodeDescriptor> batch;
        const auto n = 1 + rng.below(25);
        for (std::uint64_t i = 0; i < n; ++i) batch.push_back(pool[rng.below(pool.size())]);
        if (rng.chance(0.1)) batch.push_back({own, 1});            // self: ignored
        if (rng.chance(0.1)) batch.push_back({123, kNullAddress});  // null: ignored
        ls.update(batch);
        ref.update(batch);
      } else if (op < 9) {  // evict (dead-peer removal), present or not
        const NodeId victim = rng.chance(0.7) && !ref.successors().empty()
                                  ? ref.successors()[rng.below(ref.successors().size())].id
                                  : pool[rng.below(pool.size())].id;
        EXPECT_EQ(ls.remove(victim), ref.remove(victim)) << "step " << step;
      } else {  // copy round-trip: the copied set must carry identical state
        const LeafSet snapshot = ls;
        ls = snapshot;
      }
      expect_same(ls.successors(), ref.successors(), "successors", step);
      expect_same(ls.predecessors(), ref.predecessors(), "predecessors", step);
    }
  }
}

TEST(SoaEquivalence, PrefixTableMatchesSeedSemanticsUnderRandomOps) {
  const DigitConfig digits{};  // repo default (b = 4)
  for (const std::uint64_t seed : {2ull, 11ull, 4321ull}) {
    Rng rng(seed);
    const NodeId own = rng.next_u64();
    const int k = 1 + static_cast<int>(rng.below(4));
    PrefixTable pt(own, digits, k);
    RefPrefixTable ref(own, digits, k);
    const auto pool = test::random_descriptors(300, seed * 17 + 5);

    for (std::size_t step = 0; step < 600; ++step) {
      const auto op = rng.below(10);
      if (op < 7) {  // UPDATEPREFIXTABLE for one descriptor
        const auto& d = pool[rng.below(pool.size())];
        EXPECT_EQ(pt.insert(d), ref.insert(d)) << "step " << step;
      } else if (op < 9) {  // dead-peer removal, present or not
        const NodeId victim = rng.chance(0.7) && !ref.entries().empty()
                                  ? ref.entries()[rng.below(ref.entries().size())].id
                                  : pool[rng.below(pool.size())].id;
        EXPECT_EQ(pt.remove(victim), ref.remove(victim)) << "step " << step;
      } else {  // copy round-trip
        const PrefixTable snapshot = pt;
        pt = snapshot;
      }
      expect_same(pt.entries(), ref.entries(), "entries", step);
      EXPECT_EQ(pt.filled(), ref.entries().size()) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace bsvc
