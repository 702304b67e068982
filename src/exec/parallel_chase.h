// Parallel chase execution engine.
//
// PR 2 made trigger enumeration delta-driven: each chase step searches for
// rule-body homomorphisms anchored in the contiguous atom range the
// previous step appended, against an instance that is read-only until the
// step's firing phase. That shape decomposes into independent
// (rule × delta-anchor × delta-chunk) homomorphism searches, which this
// engine fans out over a work-stealing ThreadPool. Workers write trigger
// candidates as flat rows (TriggerRows) into private batches; the batches
// are spliced together and sorted into the canonical (rule, body-image)
// firing order — the same order the serial engine sorts into — so the
// parallel chase is bit-identical to the serial one (atoms, trigger
// sequence, provenance, fresh-null numbering) at any thread count. Firing
// itself stays serial: it is the only phase that mutates the instance and
// the universe, and it is a small fraction of a step's work on the wide
// steps where parallelism pays off.
//
// The restricted variant's satisfaction check is also parallelized, via a
// monotonicity argument: instances only grow, so a trigger whose head is
// satisfied *before* the step fires anything is satisfied at its serial
// check time too. The engine prechecks all candidates concurrently against
// the step-start instance; the serial firing phase trusts a positive
// precheck, and re-checks a negative one only if earlier triggers of the
// same step have already added atoms (exactly the case where the serial
// engine's answer could differ).

#ifndef BDDFC_EXEC_PARALLEL_CHASE_H_
#define BDDFC_EXEC_PARALLEL_CHASE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/thread_pool.h"
#include "homomorphism/homomorphism.h"
#include "logic/term.h"

namespace bddfc {
namespace exec {

/// A step's trigger candidates as flat rows. Every candidate's body image
/// (the images of its rule's body_vars(), in rule-variable order) lives in
/// one shared term arena; a row is just (rule, offset into the arena), and
/// every row of a rule has that rule's body width. The body image doubles
/// as the canonical sort key and as the material the firing phase projects
/// head atoms from.
class TriggerRows {
 public:
  struct Row {
    std::uint32_t rule = 0;
    std::uint32_t offset = 0;  // first image term in the arena
  };

  /// Appends a row of `width` image terms for `rule` and returns the
  /// slots to fill (valid until the next Append). CHECK-fails when a rule
  /// is appended with two different widths.
  Term* Append(std::size_t rule, std::size_t width);

  /// Moves every row of `other` behind this one's, in order.
  void Splice(TriggerRows&& other);

  /// Keeps exactly the rows i with keep(i), in their current order (the
  /// arena is left alone).
  template <typename Keep>
  void Filter(const Keep& keep) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (keep(i)) rows_[kept++] = rows_[i];
    }
    rows_.resize(kept);
  }

  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  std::size_t rule(std::size_t i) const { return rows_[i].rule; }
  std::size_t width(std::size_t i) const { return widths_[rows_[i].rule]; }
  const Term* image(std::size_t i) const {
    return terms_.data() + rows_[i].offset;
  }

 private:
  friend void SortCanonical(TriggerRows* rows,
                            const std::vector<std::size_t>* ranks);

  static constexpr std::uint32_t kNoWidth = UINT32_MAX;

  std::vector<Term> terms_;
  std::vector<Row> rows_;
  // Body width per rule index; kNoWidth for rules without rows so far.
  std::vector<std::uint32_t> widths_;
};

/// One rule's enumeration assignment for a chase round, as planned by a
/// RuleScheduler (src/chase/rule_scheduler.h). The flat schedule gives
/// every rule the chase's global delta window; the stratified schedule
/// hands each rule its own window (rules of not-yet-active or saturated
/// strata simply get no job).
struct RuleJob {
  std::size_t rule_index = 0;
  /// Full enumeration over [0, delta_end) — the first-step / naive-mode
  /// search — instead of a delta-anchored one.
  bool full = false;
  /// Delta window start (ignored when `full`).
  std::uint32_t delta_begin = 0;
};

/// The canonical (rule, body-image) firing order shared by the serial and
/// parallel engines: rule index first, then the body images
/// lexicographically (terms compare by their raw bits).
inline bool CanonicalTriggerLess(const TriggerRows& rows, std::size_t a,
                                 std::size_t b) {
  if (rows.rule(a) != rows.rule(b)) return rows.rule(a) < rows.rule(b);
  const Term* x = rows.image(a);
  const Term* y = rows.image(b);
  return std::lexicographical_compare(x, x + rows.width(a), y,
                                      y + rows.width(b));
}

/// Sorts the rows into the canonical firing order: a stable bucket pass by
/// rule gathers each rule's images into a fresh arena, then an LSD radix
/// sort over each bucket's 32-bit term columns (byte digits, last column
/// first; digits every row shares are skipped) reorders them, so the
/// sorted rows also sit in arena order. With `ranks`, rule buckets are
/// ordered by (ranks[rule], rule) instead of rule alone — the stratified
/// schedule's restraint-first firing order. Rows comparing equal are
/// identical candidates, so the resulting sequence does not depend on the
/// input order.
void SortCanonical(TriggerRows* rows,
                   const std::vector<std::size_t>* ranks = nullptr);

/// Per-step parallel executor owned by a chase engine. All methods are
/// called from the chase's driving thread; they block until the fanned-out
/// work completes, so the caller may read the outputs without further
/// synchronization.
class ParallelChase {
 public:
  /// Collector invoked (concurrently, from pool workers) for every
  /// enumerated body homomorphism of rule `rule_index`, given as the
  /// search's slot image; it appends the trigger's row to `batch`. Must be
  /// thread-safe.
  using CollectFn = std::function<void(
      std::size_t rule_index, const Term* image, TriggerRows* batch)>;

  /// Creates the executor with `num_threads` total execution threads: one
  /// is the caller (which participates while waiting), the rest are pool
  /// workers owned by this executor. `num_threads` 0 resolves to the
  /// hardware thread count.
  explicit ParallelChase(std::size_t num_threads);

  /// Creates the executor borrowing `pool` (not owned; must outlive the
  /// executor). Lets a session share one pool between chase execution and
  /// its other pool-parallel work instead of spinning up a second set of
  /// workers.
  explicit ParallelChase(ThreadPool* pool);

  /// Total execution threads (workers + the participating caller).
  std::size_t num_threads() const { return pool_->num_workers() + 1; }

  /// The underlying pool, shared with HomSearch's pool-parallel queries.
  ThreadPool* pool() { return pool_; }

  /// Job-based enumeration: appends the candidate multiset of running
  /// each job's search — ForEach-equivalent over [0, delta_end) for a
  /// `full` job, ForEachDelta-equivalent over [job.delta_begin, delta_end)
  /// otherwise. Work units are (job, anchor, chunk) triples: a
  /// qualifying homomorphism has exactly one anchor and one anchor image
  /// index, so the units partition the enumeration. A step narrow enough
  /// to yield a single unit runs inline on the caller.
  void CollectJobs(std::vector<HomSearch>* searches,
                   const std::vector<RuleJob>& jobs, std::uint32_t delta_end,
                   const CollectFn& collect, TriggerRows* out);

  /// Parallel map over rows: (*out)[i] = check(i) for i < `count`.
  /// `check` runs concurrently and must be thread-safe and read-only with
  /// respect to shared state.
  void ParallelCheck(std::size_t count,
                     const std::function<bool(std::size_t)>& check,
                     std::vector<char>* out);

 private:
  std::unique_ptr<ThreadPool> owned_pool_;  // null when borrowing
  ThreadPool* pool_;  // owned_pool_.get(), or the borrowed pool
};

}  // namespace exec
}  // namespace bddfc

#endif  // BDDFC_EXEC_PARALLEL_CHASE_H_
