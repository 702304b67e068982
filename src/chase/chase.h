// The (oblivious) chase of Section 2.2.
//
// Step semantics follow the paper exactly: Ch_0(I,R) = I and
// Ch_{n+1}(I,R) = Ch_n ∪ ⋃_{τ ∈ T_n} output(τ), where T_n is the set of
// triggers available on Ch_n that were not available on Ch_{n-1}. A trigger
// is a pair ⟨ρ, h⟩ of a rule and a homomorphism from body(ρ); its output
// maps existential variables to fresh labeled nulls.
//
// The chase is in general infinite; ObliviousChase runs a bounded prefix
// Ch_k and reports whether the chase saturated (no new trigger fired), in
// which case the prefix *is* the full chase — a finite universal model.
//
// Every chase term (labeled null) carries the provenance the Section 5
// machinery needs: its timestamp TS(t) (Definition 34: the first step whose
// active domain contains it), its frontier (the images h(fr(ρ)) of the
// creating trigger, Section 2.2), and the creating rule. The chase stores it
// flat — one record per fired trigger that created an atom or a null, plus
// the trigger's slot values in a shared term arena — and rebuilds the
// per-term and per-atom views (InfoOf, ProvenanceOf) on demand.

#ifndef BDDFC_CHASE_CHASE_H_
#define BDDFC_CHASE_CHASE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "chase/rule_scheduler.h"
#include "exec/execution_config.h"
#include "homomorphism/homomorphism.h"
#include "logic/instance.h"
#include "logic/rule.h"
#include "logic/substitution.h"

namespace bddfc {

class SegmentEngine;

namespace exec {
class ParallelChase;
}  // namespace exec

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

/// Which trigger-firing discipline to use.
enum class ChaseVariant {
  /// The paper's oblivious chase: every trigger fires exactly once,
  /// regardless of whether its output is already satisfied.
  kOblivious,
  /// The semi-oblivious (skolem) chase: triggers agreeing on the rule and
  /// the frontier image fire at most once — body variables outside the
  /// frontier cannot multiply nulls. Produces a hom-equivalent but often
  /// much smaller result; the ablation benches quantify the gap.
  kSemiOblivious,
  /// The restricted (standard) chase: a trigger fires only if its output is
  /// not already satisfied by an extension of the trigger homomorphism.
  /// Used when a finite universal model is wanted for saturation checks.
  kRestricted,
};

/// Variant selection and execution configuration for a chase run.
///
/// The execution knobs (engine, storage, threads, bounds) live in `exec`
/// (ExecutionConfig, src/exec/execution_config.h); the loose fields
/// max_steps / max_atoms / num_threads / pool / storage are deprecated
/// aliases kept for source compatibility.
struct ChaseOptions {
  /// Deprecated alias of exec.max_steps.
  std::size_t max_steps = 16;
  /// Deprecated alias of exec.max_atoms.
  std::size_t max_atoms = 200000;
  ChaseVariant variant = ChaseVariant::kOblivious;
  /// Escape hatch: re-enumerate every trigger from scratch at every step by
  /// running a full homomorphism search per rule (the pre-semi-naive
  /// behavior). The default delta-driven enumerator only matches triggers
  /// anchored in the atoms the previous step derived; both produce the same
  /// instance, trigger sequence, and provenance — the differential tests
  /// cross-check them atom for atom.
  bool naive_enumeration = false;
  /// Deprecated alias of exec.num_threads. Execution threads for trigger
  /// enumeration (and, in the restricted
  /// variant, the satisfaction precheck). 1 (the default) runs the
  /// unchanged serial path; 0 means "all hardware threads". Every thread
  /// count produces a bit-identical chase (atoms, trigger order,
  /// provenance, fresh-null numbering): workers only search the read-only
  /// instance, and their trigger batches are merged into the canonical
  /// (rule, body-image) order before the serial firing phase.
  std::size_t num_threads = 1;
  /// Deprecated alias of exec.pool. Optional shared execution pool (not
  /// owned; must outlive the chase).
  /// When set it overrides `num_threads`: the chase runs with
  /// pool->num_workers() + 1 execution threads and fans work out over this
  /// pool instead of spinning up its own. The Reasoner facade uses this so
  /// one session owns exactly one pool (chase + query evaluation); null
  /// (the default) keeps the self-owned-pool behavior.
  ThreadPool* pool = nullptr;
  /// Deprecated alias of exec.storage. Storage backend for the chase's
  /// working instance (the database copy
  /// the result grows in). Defaults to the database's own backend; every
  /// backend produces a bit-identical chase (same atoms, trigger order,
  /// provenance and fresh-null numbering) at every thread count.
  std::optional<StorageKind> storage = std::nullopt;
  /// The unified execution configuration: engine selection plus the
  /// storage / threading / bounds knobs shared with the Reasoner facade and
  /// chase_cli. The loose fields above predate it and survive as deprecated
  /// aliases; ResolvedExec() merges the two views (an alias overrides its
  /// `exec` twin only when it was set away from its default), so existing
  /// call sites — including designated initializers over the old field
  /// names — keep compiling and behaving unchanged.
  ExecutionConfig exec;

  /// The effective configuration the chase runs with: `exec`, with every
  /// non-default deprecated alias field overriding its twin. CHECK-fails
  /// when an alias and its twin are both set away from their defaults to
  /// different values — a conflict that used to be resolved silently in
  /// the alias's favor.
  ExecutionConfig ResolvedExec() const;
};

/// Provenance of a chase-created term.
struct ChaseTermInfo {
  /// TS(t): the chase step at which the term first appears.
  int timestamp = 0;
  /// h(fr(ρ)): images of the creating rule's frontier variables.
  std::vector<Term> frontier;
  /// Index (into the rule set) of the creating rule.
  std::size_t rule_index = 0;
  /// The full trigger homomorphism h' (body variables + existentials).
  Substitution trigger;
};

/// Bounded-prefix oblivious/restricted chase engine.
class ObliviousChase {
 public:
  /// Prepares a chase of `rules` from `database`. No steps run yet.
  ObliviousChase(const Instance& database, RuleSet rules,
                 ChaseOptions options = {});

  // The cached per-rule searches point into instance_.
  ObliviousChase(const ObliviousChase&) = delete;
  ObliviousChase& operator=(const ObliviousChase&) = delete;

  ~ObliviousChase();

  /// Runs until saturation or until the step/atom bounds hit. Returns the
  /// number of steps executed in total.
  std::size_t Run();

  /// Runs until at least `k` steps executed (or saturation/bounds).
  std::size_t RunSteps(std::size_t k);

  /// Incremental insertion: appends `facts` (atoms over constants or nulls,
  /// never variables) to the instance as database atoms and re-arms the
  /// chase, so the next RunSteps resumes from the existing materialization
  /// instead of re-chasing from scratch. The new atoms land above the
  /// delta cursor (every completed round advances it past the atoms it
  /// enumerated), so the next round's delta-driven enumerator finds exactly
  /// the triggers whose body image uses at least one of them — each once,
  /// and none that already fired. Returns the number of atoms actually
  /// added; atoms already present (database or derived) are skipped.
  /// Clears Saturated() when anything was added; HitBounds() is sticky — an
  /// atom-budget-stopped chase stays stopped. For the oblivious and
  /// semi-oblivious variants the resumed run fires the same trigger set a
  /// from-scratch chase of the extended instance fires, so the results are
  /// isomorphic (CanonicalAtoms() compares equal); the restricted variant
  /// yields a hom-equivalent but possibly smaller result.
  std::size_t AddBaseFacts(const std::vector<Atom>& facts);

  /// Order-independent rendering of Result(): every labeled null is renamed
  /// to its skolem term f<rule>_<existential>(identity images...), built
  /// recursively from the creating trigger (identity = body image for the
  /// oblivious/restricted variants, frontier image for the semi-oblivious
  /// one, matching the trigger identity), and the atom strings are returned
  /// sorted. Two chases of the same rules agree on CanonicalAtoms() iff
  /// their results are equal up to null renaming — the yardstick the
  /// incremental-vs-scratch differential tests compare with. Intended for
  /// testing/debugging: string size grows with null nesting depth.
  std::vector<std::string> CanonicalAtoms() const;

  /// The chase result built so far (Ch_n for n = StepsExecuted()).
  const Instance& Result() const { return instance_; }

  Universe* universe() const { return instance_.universe(); }

  /// True if the last executed step fired no trigger: the instance is the
  /// full (finite) chase.
  bool Saturated() const { return saturated_; }

  /// True if the atom bound stopped the run before saturation.
  bool HitBounds() const { return hit_bounds_; }

  /// True if the atom bound cut the last counted step short: it fired some
  /// but not all of its available triggers, so Result() is a strict subset
  /// of Ch_{StepsExecuted()}. HitBounds() is also true in that case. When
  /// HitBounds() holds but LastStepTruncated() does not, the bound was
  /// already exhausted before any trigger of the next step could fire and no
  /// phantom step was counted.
  bool LastStepTruncated() const { return last_step_truncated_; }

  /// Steps that actually fired at least one trigger. A step cut off by
  /// max_atoms before firing anything is not counted.
  std::size_t StepsExecuted() const { return steps_executed_; }

  /// Number of atoms present after step k (k ≤ StepsExecuted()).
  std::size_t AtomCountAtStep(std::size_t k) const;

  /// The prefix Ch_k as a standalone instance (k ≤ StepsExecuted()).
  Instance Prefix(std::size_t k) const;

  /// Creation step of atom #idx of Result().atoms() (0 for database atoms).
  int StepOfAtom(std::size_t idx) const;

  /// TS(t): 0 for database terms, creation step for chase terms.
  int TimestampOf(Term t) const;

  /// Provenance of a chase term, rebuilt from its creating trigger's
  /// record; nullopt for database terms and for nulls this chase did not
  /// invent.
  std::optional<ChaseTermInfo> InfoOf(Term t) const;

  /// Number of triggers fired in total. Reads the scheduler's per-rule
  /// counters (the single source of truth since the stats unification), so
  /// this, RuleSchedulerStats::fired_total() and the metrics registry's
  /// `chase.triggers_fired` can never disagree.
  std::size_t TriggersFired() const;

  /// Resolved execution thread count (1 = serial).
  std::size_t num_threads() const { return num_threads_; }

  /// The rule scheduler driving the per-step rule loop (flat pass-through
  /// or reliance-stratified, per ExecutionConfig::schedule). Exposes the
  /// per-rule work counters (candidates, ledger rejections, fired, new and
  /// duplicate atoms, skips), the stratification and the reliance graph
  /// (see src/chase/rule_scheduler.h).
  const RuleScheduler& scheduler() const { return *scheduler_; }

  /// Provenance of one atom of Result(): the trigger that first derived
  /// it (database atoms have `database == true`).
  struct AtomProvenance {
    bool database = true;
    int step = 0;
    std::size_t rule_index = 0;
    /// The full trigger homomorphism h' (body + existential images).
    Substitution trigger;
  };

  /// Provenance of Result().atoms()[idx], rebuilt from its creating
  /// trigger's record.
  AtomProvenance ProvenanceOf(std::size_t idx) const;

  /// A textual derivation tree for `atom` (which must be in Result()):
  /// each line shows an atom and the rule/trigger that produced it, with
  /// its body atoms indented below (down to `max_depth` levels; database
  /// atoms are leaves).
  std::string Explain(const Atom& atom, int max_depth = 8) const;

  /// Observation 35: true if the binary atoms of the result form a directed
  /// acyclic graph (loops and longer cycles both count as cycles).
  bool IsDag() const;

  const RuleSet& rules() const { return rules_; }

 private:
  // The fired ledger of one rule: a set of trigger identities, each
  // `width` terms wide (the images of the identity variables: frontier()
  // for the semi-oblivious variant, body_vars() otherwise). Identities sit
  // back to back in a term arena; an open-addressing table with linear
  // probing indexes them, each slot packing the upper 32 bits of the
  // identity's hash above its entry number + 1 (0 = empty), so most
  // mismatching probes never touch the arena. Zero-width identities (an
  // empty semi-oblivious frontier) all compare equal: the ledger holds at
  // most one.
  class TriggerLedger {
   public:
    explicit TriggerLedger(std::size_t width) : width_(width) {}
    bool Contains(const Term* key) const;
    // Adds `key`; returns false when it was already present.
    bool Insert(const Term* key);
    void Clear();
    bool empty() const { return count_ == 0; }

   private:
    std::size_t Hash(const Term* key) const;
    // The slot holding `key`, or the empty slot its probe ends at. Needs a
    // non-empty table.
    std::size_t FindSlot(const Term* key, std::size_t hash) const;
    std::size_t width_;
    std::vector<Term> keys_;
    std::vector<std::uint64_t> slots_;
    std::uint32_t count_ = 0;
  };

  // One fired trigger that created an atom or a null: its rule, its step,
  // and where its slot values (body image, then fresh nulls) start in
  // record_terms_.
  struct TriggerRecord {
    std::uint32_t rule = 0;
    std::int32_t step = 0;
    std::size_t offset = 0;
  };
  // atom_record_ entry of a database atom.
  static constexpr std::uint32_t kDatabaseRecord = UINT32_MAX;

  // A rule head compiled into a projection over trigger slots: slot i <
  // |body_vars()| is body image term i, slot |body_vars()| + e is the
  // fresh null of existentials()[e]. atoms[k] is a scratch copy of head
  // atom k; firing overwrites each argument j with slots[k][j] >= 0 and
  // leaves constants (slot -1) as they are.
  struct HeadProjection {
    std::vector<Atom> atoms;
    std::vector<std::vector<int>> slots;
  };

  struct StepOutcome {
    bool fired = false;      // at least one trigger fired
    bool truncated = false;  // max_atoms stopped the step mid-way
  };
  StepOutcome StepOnce();

  // Fires the trigger of rule `rule` with body image `image` at chase step
  // `step`: invents its nulls, projects and inserts its head atoms, and
  // records provenance for every new atom and null.
  void Fire(std::size_t rule, const Term* image, int step);

  // The ledger identity of the trigger of rule `rule` with body image
  // `image`: the image itself, or (semi-oblivious) its frontier projection
  // written to identity_scratch_. Valid until the next call.
  const Term* IdentityOf(std::size_t rule, const Term* image);

  // The record of the trigger that invented `null`, or null for terms this
  // chase did not invent.
  const TriggerRecord* RecordOfNull(Term null) const;

  // The trigger homomorphism h' (body variables + existentials) of a
  // record, as a Substitution.
  Substitution TriggerOf(const TriggerRecord& record) const;

  // Restricted variant: true iff the head of rule `rule` is already
  // satisfied by an extension of the frontier image of body image `image`.
  // Read-only and thread-safe (runs concurrently from the parallel
  // precheck).
  bool HeadSatisfied(std::size_t rule, const Term* image) const;

  // The resolved execution configuration (declared before instance_: the
  // constructor resolves it first and builds the instance from its storage
  // choice).
  ExecutionConfig exec_;
  Instance instance_;
  RuleSet rules_;
  ChaseOptions options_;
  // One cached homomorphism search per rule body; the searches reference
  // instance_ and see every appended atom (ObliviousChase is therefore
  // neither copyable nor movable).
  std::vector<HomSearch> rule_searches_;
  // Restricted variant only: one cached head search per rule.
  std::vector<HomSearch> head_searches_;
  // Positions of each rule's frontier variables within body_vars() — seeds
  // the restricted head check straight from a candidate's body image, and
  // projects the semi-oblivious trigger identity and the frontier
  // provenance out of it.
  std::vector<std::vector<std::size_t>> frontier_positions_;
  // One compiled head projection per rule, and the firing scratch holding
  // a trigger's slot values (body image, then fresh nulls).
  std::vector<HeadProjection> heads_;
  std::vector<Term> slot_values_;
  // Per-rule work counts of the round in progress, added to the
  // scheduler's totals when the round ends.
  RuleSchedulerStats round_;
  // Parallel executor (null when num_threads_ == 1: the serial path).
  std::size_t num_threads_ = 1;
  std::unique_ptr<exec::ParallelChase> parallel_;
  // Per-round rule scheduling (never null; flat by default).
  std::unique_ptr<RuleScheduler> scheduler_;
  // Segment-at-a-time enumerator (null under the default trigger engine).
  std::unique_ptr<SegmentEngine> segment_;
  std::size_t steps_executed_ = 0;
  bool saturated_ = false;
  bool hit_bounds_ = false;
  bool last_step_truncated_ = false;
  // Start of the next round's delta window: every completed round
  // advances it to the instance size it enumerated against, so no window
  // is enumerated twice. 0 until the first round, which enumerates the
  // full instance.
  std::uint32_t delta_cursor_ = 0;
  // The fired ledgers (one per rule), kept only where a trigger identity
  // can come up again: the semi-oblivious identity (many body images share
  // one frontier image) and naive enumeration (every round re-enumerates
  // everything). Elsewhere the semi-naive windows — the flat cursor above
  // or the stratified schedule's per-rule cursors — find each trigger
  // exactly once; only a cancelled round, whose window a resumed run
  // enumerates again, records its fired identities there until the next
  // round completes (ledger_seeded_).
  bool use_ledger_ = false;
  bool ledger_seeded_ = false;
  std::vector<TriggerLedger> ledgers_;
  std::vector<Term> identity_scratch_;
  // Metrics instruments (resolved from exec_.metrics; never null). The
  // gauges are updated mid-step so the progress heartbeat sees live
  // values; all updates are relaxed atomics and never steer execution.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* metric_step_ = nullptr;
  obs::Gauge* metric_atoms_ = nullptr;
  obs::Counter* metric_fired_ = nullptr;
  std::vector<std::size_t> atoms_at_step_;  // atom count after each step
  // Provenance: the trigger records and their slot values; per atom of
  // instance_ the record that created it (kDatabaseRecord for database
  // atoms); per invented null its record, ascending by null (FreshNull
  // counts up and firing is serial, so appending keeps the order).
  std::vector<TriggerRecord> records_;
  std::vector<Term> record_terms_;
  std::vector<std::uint32_t> atom_record_;
  std::vector<std::pair<Term, std::uint32_t>> null_records_;
};

/// Convenience: runs the chase of `rules` on `database` and returns the
/// result instance (paper notation Ch(I,R), truncated per `options`).
Instance Chase(const Instance& database, const RuleSet& rules,
               ChaseOptions options = {});

/// Lemma 33 decomposition: chases `existential_rules` first, then saturates
/// with `datalog_rules` (restricted variant, which terminates whenever the
/// Datalog saturation is finite). Paper notation Ch(Ch(I,R∃),R_DL).
Instance ChaseThenDatalog(const Instance& database,
                          const RuleSet& existential_rules,
                          const RuleSet& datalog_rules,
                          ChaseOptions existential_options = {},
                          std::size_t datalog_max_steps = 64);

}  // namespace bddfc

#endif  // BDDFC_CHASE_CHASE_H_
