// Tests for the execution subsystem: the work-stealing ThreadPool and
// ParallelFor in src/base, the exec::ParallelChase building blocks, and
// the pool-parallel HomSearch queries (which must be bit-identical to
// their serial counterparts).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "exec/parallel_chase.h"
#include "generators/workload.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.WaitAll();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineInWaitAll) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  int count = 0;  // no synchronization needed: everything runs inline
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.WaitAll();
  EXPECT_EQ(count, 50);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &count] {
      count.fetch_add(1);
      for (int j = 0; j < 4; ++j) {
        pool.Submit([&count] { count.fetch_add(1); });
      }
    });
  }
  pool.WaitAll();
  EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ThreadPoolTest, WaitAllIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.WaitAll();
    EXPECT_EQ(count.load(), 20 * (round + 1));
  }
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(7), 7u);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1u);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  for (auto& h : hits) h.store(0);
  ParallelFor(&pool, 0, hits.size(), /*grain=*/10,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
              });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolAndEmptyRangeAreFine) {
  int calls = 0;
  ParallelFor(nullptr, 5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::size_t sum = 0;
  ParallelFor(nullptr, 0, 100, 8, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    for (std::size_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(calls, 1);  // inline: the whole range in one chunk
  EXPECT_EQ(sum, 4950u);
}

// Appends a row for `rule` with body image `image`.
void AppendRow(exec::TriggerRows* rows, std::size_t rule,
               const std::vector<Term>& image) {
  Term* out = rows->Append(rule, image.size());
  std::copy(image.begin(), image.end(), out);
}

// A rows object's (rule, body image) sequence, in row order.
using RowList = std::vector<std::pair<std::size_t, std::vector<Term>>>;

RowList RowsOf(const exec::TriggerRows& rows) {
  RowList out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out.push_back({rows.rule(i), std::vector<Term>(rows.image(i),
                                                   rows.image(i) +
                                                       rows.width(i))});
  }
  return out;
}

TEST(SortCanonicalTest, OrdersByRuleThenBodyImage) {
  Universe u;
  Term a = u.InternConstant("a");
  Term b = u.InternConstant("b");
  exec::TriggerRows rows;
  AppendRow(&rows, 1, {a});
  AppendRow(&rows, 0, {b, a});
  AppendRow(&rows, 0, {a, b});
  exec::SortCanonical(&rows);
  EXPECT_EQ(RowsOf(rows), (RowList{{0, {a, b}}, {0, {b, a}}, {1, {a}}}));
}

TEST(SortCanonicalTest, RanksOrderRuleBuckets) {
  Universe u;
  Term a = u.InternConstant("a");
  Term b = u.InternConstant("b");
  exec::TriggerRows rows;
  AppendRow(&rows, 0, {b});
  AppendRow(&rows, 1, {a});
  AppendRow(&rows, 2, {a});
  AppendRow(&rows, 0, {a});
  const std::vector<std::size_t> ranks = {1, 0, 1};
  exec::SortCanonical(&rows, &ranks);
  EXPECT_EQ(RowsOf(rows),
            (RowList{{1, {a}}, {0, {a}}, {0, {b}}, {2, {a}}}));
}

TEST(SortCanonicalTest, RadixSortMatchesComparisonSortOnRandomRows) {
  // Mixed rules and body widths (including a ground body of width 0),
  // many duplicate rows, and terms of every TermKind: the kind sits in
  // the top bits, so the high radix digit is exercised, and indices span
  // the lower bytes.
  const std::size_t kWidths[] = {3, 1, 0, 2, 4};
  const auto random_term = [](Rng* rng) {
    const std::uint32_t index =
        rng->Below(4) == 0 ? static_cast<std::uint32_t>(rng->Below(1u << 29))
                           : static_cast<std::uint32_t>(rng->Below(300));
    switch (rng->Below(3)) {
      case 0:
        return Term::MakeConstant(index);
      case 1:
        return Term::MakeVariable(index);
      default:
        return Term::MakeNull(index);
    }
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    exec::TriggerRows rows;
    const std::size_t count = 1 + rng.Below(2000);
    for (std::size_t i = 0; i < count; ++i) {
      if (i > 0 && rng.Below(3) == 0) {  // duplicate an earlier row
        const std::size_t j = rng.Below(i);
        const std::vector<Term> image(rows.image(j),
                                      rows.image(j) + rows.width(j));
        AppendRow(&rows, rows.rule(j), image);
        continue;
      }
      const std::size_t rule = rng.Below(5);
      std::vector<Term> image;
      for (std::size_t k = 0; k < kWidths[rule]; ++k) {
        image.push_back(random_term(&rng));
      }
      AppendRow(&rows, rule, image);
    }
    std::vector<std::size_t> order(rows.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&rows](std::size_t x, std::size_t y) {
                return exec::CanonicalTriggerLess(rows, x, y);
              });
    RowList expected;
    const RowList all = RowsOf(rows);
    for (std::size_t i : order) expected.push_back(all[i]);

    exec::SortCanonical(&rows);
    EXPECT_EQ(RowsOf(rows), expected) << "seed " << seed;
  }
}

TEST(TriggerRowsTest, SpliceAndFilterKeepRowOrder) {
  Universe u;
  Term a = u.InternConstant("a");
  Term b = u.InternConstant("b");
  exec::TriggerRows first, second;
  AppendRow(&first, 0, {a, b});
  AppendRow(&second, 1, {b});
  AppendRow(&second, 0, {b, b});
  first.Splice(std::move(second));
  first.Filter([&first](std::size_t i) { return first.rule(i) == 0; });
  EXPECT_EQ(RowsOf(first), (RowList{{0, {a, b}}, {0, {b, b}}}));
}

// Builds a mid-sized random instance and a connected CQ, then checks every
// pool-parallel HomSearch query against its serial counterpart.
class ParallelHomTest : public ::testing::Test {
 protected:
  void Build(std::uint64_t seed, int num_atoms) {
    Rng rng(seed);
    generators::RuleSetSpec spec;
    spec.num_predicates = 3;
    rules_ = generators::RandomBinaryRuleSet(&universe_, spec, &rng);
    instance_.emplace(
        generators::RandomInstance(&universe_, rules_, /*num_constants=*/12,
                                   num_atoms, &rng));
    query_ = generators::RandomBooleanCq(&universe_, rules_, /*num_atoms=*/3,
                                         /*num_vars=*/4, &rng);
  }

  Universe universe_;
  RuleSet rules_;
  std::optional<Instance> instance_;
  std::optional<Cq> query_;
};

// The answer projection over all slots: at every worker count the parallel
// rows equal the serial ones, in order.
TEST_F(ParallelHomTest, ParallelProjectionMatchesSerialOrder) {
  for (std::uint64_t seed : {7u, 21u, 33u}) {
    Build(seed, /*num_atoms=*/300);
    HomSearch search(query_->atoms(), &*instance_);
    std::vector<std::size_t> columns(search.slot_order().size());
    for (std::size_t i = 0; i < columns.size(); ++i) columns[i] = i;
    std::vector<Term> serial;
    const std::size_t serial_rows = search.Project(columns, &serial);
    EXPECT_EQ(serial_rows, search.FindAll().size()) << "seed " << seed;
    for (std::size_t workers : {1u, 2u, 4u}) {
      ThreadPool pool(workers);
      std::vector<Term> parallel;
      EXPECT_EQ(search.Project(columns, &parallel, &pool), serial_rows)
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(parallel, serial) << "seed " << seed << " workers "
                                  << workers;
    }
  }
}

TEST_F(ParallelHomTest, CountAndExistsMatchSerial) {
  for (std::uint64_t seed : {5u, 11u}) {
    Build(seed, /*num_atoms=*/250);
    HomSearch search(query_->atoms(), &*instance_);
    const std::size_t serial_count = search.FindAll().size();
    ThreadPool pool(4);
    EXPECT_EQ(search.CountParallel(&pool), serial_count);
    EXPECT_EQ(search.ExistsParallel(&pool), serial_count > 0);
  }
}

// The limited projection over all slots: whole rows, cut at the limit both
// inside the first chunk and past a chunk boundary.
TEST_F(ParallelHomTest, ParallelProjectionRespectsLimit) {
  Build(/*seed=*/7, /*num_atoms=*/300);
  HomSearch search(query_->atoms(), &*instance_);
  std::vector<std::size_t> columns(search.slot_order().size());
  for (std::size_t i = 0; i < columns.size(); ++i) columns[i] = i;
  ASSERT_GT(columns.size(), 1u);
  const std::size_t total = search.FindAll().size();
  ASSERT_GT(total, 20u);
  for (std::size_t limit : {std::size_t{10}, total / 2}) {
    std::vector<Term> serial;
    ASSERT_EQ(search.Project(columns, &serial, nullptr, limit), limit);
    ASSERT_EQ(serial.size(), limit * columns.size());
    for (std::size_t workers : {1u, 2u, 4u}) {
      ThreadPool pool(workers);
      std::vector<Term> parallel;
      EXPECT_EQ(search.Project(columns, &parallel, &pool, limit), limit);
      EXPECT_EQ(parallel, serial)
          << "limit " << limit << " workers " << workers;
    }
  }
}

TEST(ForEachFirstInTest, PartitionReproducesForEach) {
  Universe u;
  Instance instance = MustParseInstance(
      &u, "E(a,b). E(b,c). E(c,d). E(d,a). E(a,c). E(b,d).");
  Cq q = MustParseCq(&u, "? :- E(x,y), E(y,z)");
  HomSearch search(q.atoms(), &instance);
  std::vector<Substitution> serial;
  search.ForEach({}, [&](const Substitution& h) {
    serial.push_back(h);
    return true;
  });
  // Any partition of [0, size) must reproduce the serial enumeration when
  // chunks are visited in index order.
  const std::uint32_t n = static_cast<std::uint32_t>(instance.size());
  for (std::uint32_t split = 0; split <= n; ++split) {
    std::vector<Substitution> chunked;
    const auto visit = [&](const Term* image) {
      chunked.push_back(search.ToSubstitution(image));
      return true;
    };
    search.ForEachFirstIn(0, split, {}, visit);
    search.ForEachFirstIn(split, n, {}, visit);
    ASSERT_EQ(serial.size(), chunked.size()) << "split " << split;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].entries(), chunked[i].entries())
          << "split " << split << " hom " << i;
    }
  }
}

TEST(ForEachDeltaAnchorTest, ChunkedAnchorsReproduceForEachDelta) {
  Universe u;
  // Two chase-like "generations": treat the last four atoms as the delta.
  Instance instance = MustParseInstance(
      &u,
      "E(a,b). E(b,c). E(c,d). E(d,e). "
      "E(e,f). E(f,g). E(g,a). E(e,a).");
  Cq q = MustParseCq(&u, "? :- E(x,y), E(y,z)");
  HomSearch search(q.atoms(), &instance);
  const std::uint32_t delta_begin = 5;  // ⊤ + first four atoms before it
  const std::uint32_t delta_end = static_cast<std::uint32_t>(instance.size());
  std::multiset<std::vector<std::pair<Term, Term>>> expected, chunked;
  const auto keyed = [](const Substitution& h) {
    std::vector<std::pair<Term, Term>> key(h.entries().begin(),
                                           h.entries().end());
    std::sort(key.begin(), key.end());
    return key;
  };
  search.ForEachDelta({}, delta_begin, delta_end, [&](const Term* image) {
    expected.insert(keyed(search.ToSubstitution(image)));
    return true;
  });
  EXPECT_FALSE(expected.empty());
  search.PrepareDelta();
  for (std::size_t anchor = 0; anchor < search.source_size(); ++anchor) {
    for (std::uint32_t lo = delta_begin; lo < delta_end; ++lo) {
      search.ForEachDeltaAnchor(anchor, delta_begin, delta_end, lo, lo + 1,
                                {}, [&](const Term* image) {
                                  chunked.insert(
                                      keyed(search.ToSubstitution(image)));
                                  return true;
                                });
    }
  }
  EXPECT_EQ(expected, chunked);
}

}  // namespace
}  // namespace bddfc
