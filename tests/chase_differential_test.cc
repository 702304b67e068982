// Differential tests for the chase's trigger enumerators: the delta-driven
// (semi-naive) engine, the naive full re-enumeration escape hatch, and the
// parallel executor (ChaseOptions::num_threads > 1) must produce
// bit-identical results — same atoms in the same order, same labeled
// nulls, same trigger counts, same per-step accounting, same provenance —
// across all three chase variants and every tested thread count, on
// deterministic and randomized generator workloads.
//
// Each engine runs in its own Universe built by an identical interning
// sequence, so predicate/constant ids and invented nulls line up exactly
// and instances can be compared atom for atom across universes.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "base/rng.h"
#include "chase/chase.h"
#include "generators/workload.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

struct EngineRun {
  Universe universe;
  std::unique_ptr<ObliviousChase> chase;
};

// Builds the seed workload inside run->universe and executes the chase with
// the given enumeration mode. The construction only depends on (text|spec,
// seed), never on the enumeration mode, so twin runs intern identical ids.
void RunOnText(const std::string& rules_text, const std::string& db_text,
               ChaseOptions options, bool naive, EngineRun* run) {
  RuleSet rules = MustParseRuleSet(&run->universe, rules_text);
  Instance db = MustParseInstance(&run->universe, db_text);
  options.naive_enumeration = naive;
  run->chase = std::make_unique<ObliviousChase>(db, std::move(rules),
                                                options);
  run->chase->Run();
}

void RunOnRandomWorkload(std::uint64_t seed,
                         const generators::RuleSetSpec& spec,
                         ChaseOptions options, bool naive, EngineRun* run) {
  Rng rng(seed);
  RuleSet rules =
      generators::RandomBinaryRuleSet(&run->universe, spec, &rng);
  Instance db = generators::RandomInstance(&run->universe, rules,
                                           /*num_constants=*/5,
                                           /*num_atoms=*/8, &rng);
  options.naive_enumeration = naive;
  run->chase = std::make_unique<ObliviousChase>(db, std::move(rules),
                                                options);
  run->chase->Run();
}

// The full cross-check: every observable of the two runs must agree.
void ExpectIdentical(const EngineRun& a, const EngineRun& b) {
  const ObliviousChase& x = *a.chase;
  const ObliviousChase& y = *b.chase;
  EXPECT_EQ(x.Saturated(), y.Saturated());
  EXPECT_EQ(x.HitBounds(), y.HitBounds());
  EXPECT_EQ(x.LastStepTruncated(), y.LastStepTruncated());
  ASSERT_EQ(x.StepsExecuted(), y.StepsExecuted());
  EXPECT_EQ(x.TriggersFired(), y.TriggersFired());
  for (std::size_t k = 0; k <= x.StepsExecuted(); ++k) {
    EXPECT_EQ(x.AtomCountAtStep(k), y.AtomCountAtStep(k)) << "step " << k;
  }
  ASSERT_EQ(x.Result().size(), y.Result().size());
  for (std::size_t i = 0; i < x.Result().size(); ++i) {
    // Atom equality is structural over ids, which the twin universes
    // interned identically — this compares order, predicates and nulls.
    ASSERT_EQ(x.Result().atoms()[i], y.Result().atoms()[i]) << "atom " << i;
    EXPECT_EQ(x.StepOfAtom(i), y.StepOfAtom(i));
    const auto& px = x.ProvenanceOf(i);
    const auto& py = y.ProvenanceOf(i);
    EXPECT_EQ(px.database, py.database);
    EXPECT_EQ(px.step, py.step);
    EXPECT_EQ(px.rule_index, py.rule_index);
    EXPECT_EQ(px.trigger.entries(), py.trigger.entries());
  }
  // Term-level provenance: timestamps and creating triggers of every null.
  ASSERT_EQ(a.universe.num_nulls(), b.universe.num_nulls());
  for (Term t : x.Result().ActiveDomain()) {
    EXPECT_EQ(x.TimestampOf(t), y.TimestampOf(t));
    const std::optional<ChaseTermInfo> ix = x.InfoOf(t);
    const std::optional<ChaseTermInfo> iy = y.InfoOf(t);
    ASSERT_EQ(ix.has_value(), iy.has_value());
    if (!ix.has_value()) continue;
    EXPECT_EQ(ix->timestamp, iy->timestamp);
    EXPECT_EQ(ix->frontier, iy->frontier);
    EXPECT_EQ(ix->rule_index, iy->rule_index);
    EXPECT_EQ(ix->trigger.entries(), iy->trigger.entries());
  }
}

constexpr ChaseVariant kVariants[] = {ChaseVariant::kOblivious,
                                      ChaseVariant::kSemiOblivious,
                                      ChaseVariant::kRestricted};

const char* VariantName(ChaseVariant v) {
  switch (v) {
    case ChaseVariant::kOblivious:
      return "oblivious";
    case ChaseVariant::kSemiOblivious:
      return "semi-oblivious";
    case ChaseVariant::kRestricted:
      return "restricted";
  }
  return "?";
}

TEST(ChaseDifferentialTest, Example1AllVariants) {
  const std::string rules =
      "E(x,y) -> E(y,z)\n"
      "E(x,y), E(y,z) -> E(x,z)\n";
  for (ChaseVariant variant : kVariants) {
    SCOPED_TRACE(VariantName(variant));
    ChaseOptions options{.variant = variant,
                         .exec = {.max_steps = 4, .max_atoms = 20000}};
    EngineRun semi, naive;
    RunOnText(rules, "E(a,b).", options, /*naive=*/false, &semi);
    RunOnText(rules, "E(a,b).", options, /*naive=*/true, &naive);
    ExpectIdentical(semi, naive);
  }
}

TEST(ChaseDifferentialTest, BddifiedExample1AllVariants) {
  const std::string rules =
      "E(x,y) -> E(y,z)\n"
      "E(x,x1), E(y,y1) -> E(x,y1)\n";
  for (ChaseVariant variant : kVariants) {
    SCOPED_TRACE(VariantName(variant));
    ChaseOptions options{.variant = variant,
                         .exec = {.max_steps = 3, .max_atoms = 60000}};
    EngineRun semi, naive;
    RunOnText(rules, "E(a,b).", options, /*naive=*/false, &semi);
    RunOnText(rules, "E(a,b).", options, /*naive=*/true, &naive);
    ExpectIdentical(semi, naive);
  }
}

TEST(ChaseDifferentialTest, DatalogSaturationReachesSameFixpoint) {
  // Saturating runs: both engines must agree that (and when) the chase
  // saturates, not just on bounded prefixes.
  const std::string rules = "E(x,y), E(y,z) -> E(x,z)";
  for (ChaseVariant variant : kVariants) {
    SCOPED_TRACE(VariantName(variant));
    ChaseOptions options{.variant = variant, .exec = {.max_steps = 64}};
    EngineRun semi, naive;
    RunOnText(rules, "E(a,b). E(b,c). E(c,d). E(d,e).", options,
              /*naive=*/false, &semi);
    RunOnText(rules, "E(a,b). E(b,c). E(c,d). E(d,e).", options,
              /*naive=*/true, &naive);
    EXPECT_TRUE(semi.chase->Saturated());
    ExpectIdentical(semi, naive);
  }
}

TEST(ChaseDifferentialTest, BoundedRunsAgreeOnTruncation) {
  // The atom bound cuts a step short: both engines must truncate at the
  // same trigger (the canonical firing order makes this well-defined).
  const std::string rules = "E(x,y) -> E(y,z), E(x,z)";
  for (ChaseVariant variant : kVariants) {
    SCOPED_TRACE(VariantName(variant));
    ChaseOptions options{.variant = variant,
                         .exec = {.max_steps = 100, .max_atoms = 40}};
    EngineRun semi, naive;
    RunOnText(rules, "E(a,b).", options, /*naive=*/false, &semi);
    RunOnText(rules, "E(a,b).", options, /*naive=*/true, &naive);
    ExpectIdentical(semi, naive);
  }
}

TEST(ChaseDifferentialTest, RandomizedWorkloadsAllVariants) {
  generators::RuleSetSpec spec;
  spec.num_predicates = 3;
  spec.num_rules = 4;
  spec.max_body_atoms = 3;
  spec.max_head_atoms = 2;
  spec.datalog_fraction = 0.5;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    for (ChaseVariant variant : kVariants) {
      SCOPED_TRACE(std::string(VariantName(variant)) + " seed " +
                   std::to_string(seed));
      ChaseOptions options{.variant = variant,
                           .exec = {.max_steps = 4, .max_atoms = 4000}};
      EngineRun semi, naive;
      RunOnRandomWorkload(seed, spec, options, /*naive=*/false, &semi);
      RunOnRandomWorkload(seed, spec, options, /*naive=*/true, &naive);
      ExpectIdentical(semi, naive);
    }
  }
}

TEST(ChaseDifferentialTest, RandomizedForwardExistentialWorkloads) {
  // The forward-existential shape (Definition 21) drives the Section 5
  // experiments; give it its own differential sweep with deeper runs.
  generators::RuleSetSpec spec;
  spec.num_predicates = 2;
  spec.num_rules = 3;
  spec.max_body_atoms = 2;
  spec.max_head_atoms = 2;
  spec.datalog_fraction = 0.25;
  spec.forward_existential_only = true;
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    for (ChaseVariant variant : kVariants) {
      SCOPED_TRACE(std::string(VariantName(variant)) + " seed " +
                   std::to_string(seed));
      ChaseOptions options{.variant = variant,
                           .exec = {.max_steps = 5, .max_atoms = 3000}};
      EngineRun semi, naive;
      RunOnRandomWorkload(seed, spec, options, /*naive=*/false, &semi);
      RunOnRandomWorkload(seed, spec, options, /*naive=*/true, &naive);
      ExpectIdentical(semi, naive);
    }
  }
}

// --- Parallel-vs-serial axis ------------------------------------------------
// The parallel executor must be bit-identical to the serial engine at every
// thread count (thread 1 short-circuits to the serial path and doubles as a
// baseline sanity check).

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

TEST(ChaseDifferentialTest, ParallelMatchesSerialOnExample1) {
  const std::string rules =
      "E(x,y) -> E(y,z)\n"
      "E(x,y), E(y,z) -> E(x,z)\n";
  for (ChaseVariant variant : kVariants) {
    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(std::string(VariantName(variant)) + " threads " +
                   std::to_string(threads));
      ChaseOptions options{.variant = variant,
                           .exec = {.max_steps = 4, .max_atoms = 20000}};
      EngineRun serial, parallel;
      RunOnText(rules, "E(a,b).", options, /*naive=*/false, &serial);
      options.exec.num_threads = threads;
      RunOnText(rules, "E(a,b).", options, /*naive=*/false, &parallel);
      ExpectIdentical(serial, parallel);
    }
  }
}

TEST(ChaseDifferentialTest, ParallelAgreesOnTruncation) {
  // The atom bound cuts a step short; the canonical merge must make the
  // parallel engine truncate at exactly the same trigger.
  const std::string rules = "E(x,y) -> E(y,z), E(x,z)";
  for (ChaseVariant variant : kVariants) {
    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(std::string(VariantName(variant)) + " threads " +
                   std::to_string(threads));
      ChaseOptions options{.variant = variant,
                           .exec = {.max_steps = 100, .max_atoms = 40}};
      EngineRun serial, parallel;
      RunOnText(rules, "E(a,b).", options, /*naive=*/false, &serial);
      options.exec.num_threads = threads;
      RunOnText(rules, "E(a,b).", options, /*naive=*/false, &parallel);
      ExpectIdentical(serial, parallel);
    }
  }
}

TEST(ChaseDifferentialTest, ParallelSaturatesWithSerialOnDatalog) {
  // Saturation (and the restricted variant's satisfaction skipping) must
  // agree: this workload exercises the parallel precheck, whose negative
  // answers get re-checked serially once the step has fired atoms.
  const std::string rules = "E(x,y), E(y,z) -> E(x,z)";
  for (ChaseVariant variant : kVariants) {
    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(std::string(VariantName(variant)) + " threads " +
                   std::to_string(threads));
      ChaseOptions options{.variant = variant, .exec = {.max_steps = 64}};
      EngineRun serial, parallel;
      RunOnText(rules, "E(a,b). E(b,c). E(c,d). E(d,e). E(e,f).", options,
                /*naive=*/false, &serial);
      options.exec.num_threads = threads;
      RunOnText(rules, "E(a,b). E(b,c). E(c,d). E(d,e). E(e,f).", options,
                /*naive=*/false, &parallel);
      EXPECT_TRUE(parallel.chase->Saturated());
      ExpectIdentical(serial, parallel);
    }
  }
}

TEST(ChaseDifferentialTest, ParallelMatchesSerialOnRandomizedWorkloads) {
  generators::RuleSetSpec spec;
  spec.num_predicates = 3;
  spec.num_rules = 4;
  spec.max_body_atoms = 3;
  spec.max_head_atoms = 2;
  spec.datalog_fraction = 0.5;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    for (ChaseVariant variant : kVariants) {
      ChaseOptions options{.variant = variant,
                           .exec = {.max_steps = 4, .max_atoms = 4000}};
      EngineRun serial;
      RunOnRandomWorkload(seed, spec, options, /*naive=*/false, &serial);
      for (std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(std::string(VariantName(variant)) + " seed " +
                     std::to_string(seed) + " threads " +
                     std::to_string(threads));
        ChaseOptions parallel_options = options;
        parallel_options.exec.num_threads = threads;
        EngineRun parallel;
        RunOnRandomWorkload(seed, spec, parallel_options, /*naive=*/false,
                            &parallel);
        ExpectIdentical(serial, parallel);
      }
    }
  }
}

TEST(ChaseDifferentialTest, ParallelNaiveEnumerationMatchesSerialNaive) {
  // The parallel executor also backs the naive escape hatch (full
  // re-enumeration chunked over the first body atom's image range).
  generators::RuleSetSpec spec;
  spec.num_predicates = 2;
  spec.num_rules = 3;
  spec.max_body_atoms = 2;
  spec.max_head_atoms = 2;
  spec.datalog_fraction = 0.25;
  spec.forward_existential_only = true;
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    for (ChaseVariant variant : kVariants) {
      SCOPED_TRACE(std::string(VariantName(variant)) + " seed " +
                   std::to_string(seed));
      ChaseOptions options{.variant = variant,
                           .exec = {.max_steps = 4, .max_atoms = 3000}};
      EngineRun serial, parallel;
      RunOnRandomWorkload(seed, spec, options, /*naive=*/true, &serial);
      options.exec.num_threads = 4;
      RunOnRandomWorkload(seed, spec, options, /*naive=*/true, &parallel);
      ExpectIdentical(serial, parallel);
    }
  }
}

TEST(ChaseDifferentialTest, IncrementalRunStepsMatchesOneShotRun) {
  // Driving the delta engine step by step (as the Section 5 probes do)
  // must land on the same result as a single Run().
  const std::string rules =
      "E(x,y) -> E(y,z)\n"
      "E(x,y), E(y,z) -> E(x,z)\n";
  ChaseOptions options{.exec = {.max_steps = 4, .max_atoms = 20000}};
  EngineRun incremental, oneshot;
  {
    RuleSet rs = MustParseRuleSet(&incremental.universe, rules);
    Instance db = MustParseInstance(&incremental.universe, "E(a,b).");
    incremental.chase =
        std::make_unique<ObliviousChase>(db, std::move(rs), options);
    for (std::size_t k = 1; k <= 4; ++k) incremental.chase->RunSteps(k);
  }
  RunOnText(rules, "E(a,b).", options, /*naive=*/false, &oneshot);
  ExpectIdentical(incremental, oneshot);
}

}  // namespace
}  // namespace bddfc
