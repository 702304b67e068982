#include "exec/parallel_chase.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "base/check.h"
#include "obs/obs.h"

namespace bddfc {
namespace exec {

namespace {

// Minimum delta atoms per (rule, anchor) chunk; below this the scheduling
// overhead outweighs the search work.
constexpr std::uint32_t kDeltaGrain = 128;

// One unit of enumeration work.
struct Unit {
  std::size_t rule = 0;
  std::size_t anchor = 0;  // unused by full-enumeration units
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  bool full = false;              // full-enumeration unit
  std::uint32_t delta_begin = 0;  // the job's delta window
};

// Chunk width that splits [0, range) into at most 2*threads pieces of at
// least kDeltaGrain atoms each.
std::uint32_t ChunkSize(std::uint32_t range, std::size_t threads) {
  if (range == 0) return 1;  // never 0: chunk loops advance by ChunkSize
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min<std::size_t>(2 * threads,
                               (range + kDeltaGrain - 1) / kDeltaGrain));
  return (range + static_cast<std::uint32_t>(chunks) - 1) /
         static_cast<std::uint32_t>(chunks);
}

// Shared fan-out scaffolding: runs `run_unit(unit, batch)` for every unit,
// each into a private batch, and splices the batches into `out` in unit
// order (the caller's canonical sort erases even this order; keeping it
// deterministic is belt and braces). A single unit skips the pool — that
// is the narrow-step fast path that keeps e.g. one-trigger linear-chain
// steps at serial cost.
void RunUnits(ThreadPool* pool, const std::vector<Unit>& units,
              const std::function<void(const Unit&, TriggerRows*)>& run_unit,
              TriggerRows* out) {
  if (units.size() <= 1) {
    for (const Unit& unit : units) {
      BDDFC_OBS_SPAN(search_span, "chase", "chase.hom_search");
      search_span.Arg("rule", unit.rule);
      run_unit(unit, out);
    }
    return;
  }
  std::vector<TriggerRows> batches(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    // One span per worker-side unit: recorded on the worker's own buffer,
    // so the fan-out shows up as parallel tracks in the trace viewer.
    pool->Submit([&, i] {
      BDDFC_OBS_SPAN(search_span, "chase", "chase.hom_search");
      search_span.Arg("rule", units[i].rule).Arg("anchor", units[i].anchor);
      run_unit(units[i], &batches[i]);
    });
  }
  pool->WaitAll();
  for (TriggerRows& batch : batches) out->Splice(std::move(batch));
}

// LSD radix sort of `count` contiguous records of `width` terms each, by
// lexicographic term order: byte-digit counting passes over the columns,
// last column first. Every pass is a stable scatter of whole records, so
// after the column-0 passes the records are in lexicographic order. A
// digit all records share — typically the kind bits and the high index
// bytes — needs no pass; one scan up front finds those.
void RadixSortRecords(Term* data, std::size_t count, std::size_t width,
                      std::vector<Term>* scratch) {
  // varying[col]: the bits in which some record's column differs from the
  // first record's.
  std::vector<std::uint32_t> varying(width, 0);
  for (std::size_t i = 1; i < count; ++i) {
    const Term* record = data + i * width;
    for (std::size_t col = 0; col < width; ++col) {
      varying[col] |= record[col].raw() ^ data[col].raw();
    }
  }
  scratch->resize(count * width);
  Term* src = data;
  Term* dst = scratch->data();
  std::array<std::uint32_t, 256> offset{};
  for (std::size_t col = width; col-- > 0;) {
    for (std::size_t shift = 0; shift < 32; shift += 8) {
      if (((varying[col] >> shift) & 0xFF) == 0) continue;
      offset.fill(0);
      for (std::size_t i = 0; i < count; ++i) {
        ++offset[(src[i * width + col].raw() >> shift) & 0xFF];
      }
      std::uint32_t sum = 0;
      for (std::uint32_t& bucket : offset) {
        const std::uint32_t c = bucket;
        bucket = sum;
        sum += c;
      }
      for (std::size_t i = 0; i < count; ++i) {
        const Term* record = src + i * width;
        Term* out =
            dst + offset[(record[col].raw() >> shift) & 0xFF]++ * width;
        for (std::size_t k = 0; k < width; ++k) out[k] = record[k];
      }
      std::swap(src, dst);
    }
  }
  if (src != data) std::copy(src, src + count * width, data);
}

}  // namespace

Term* TriggerRows::Append(std::size_t rule, std::size_t width) {
  if (rule >= widths_.size()) widths_.resize(rule + 1, kNoWidth);
  if (widths_[rule] != width) {
    BDDFC_CHECK_EQ(widths_[rule], kNoWidth);
    widths_[rule] = static_cast<std::uint32_t>(width);
  }
  const std::size_t offset = terms_.size();
  BDDFC_CHECK_LE(offset + width, std::size_t{UINT32_MAX});
  terms_.resize(offset + width);
  rows_.push_back({static_cast<std::uint32_t>(rule),
                   static_cast<std::uint32_t>(offset)});
  return terms_.data() + offset;
}

void TriggerRows::Splice(TriggerRows&& other) {
  if (rows_.empty() && terms_.empty()) {
    *this = std::move(other);
    return;
  }
  if (other.widths_.size() > widths_.size()) {
    widths_.resize(other.widths_.size(), kNoWidth);
  }
  for (std::size_t r = 0; r < other.widths_.size(); ++r) {
    if (other.widths_[r] == kNoWidth) continue;
    BDDFC_CHECK(widths_[r] == kNoWidth || widths_[r] == other.widths_[r]);
    widths_[r] = other.widths_[r];
  }
  const std::size_t base = terms_.size();
  BDDFC_CHECK_LE(base + other.terms_.size(), std::size_t{UINT32_MAX});
  terms_.insert(terms_.end(), other.terms_.begin(), other.terms_.end());
  rows_.reserve(rows_.size() + other.rows_.size());
  for (const Row& row : other.rows_) {
    rows_.push_back({row.rule,
                     row.offset + static_cast<std::uint32_t>(base)});
  }
  other = TriggerRows();
}

void SortCanonical(TriggerRows* rows, const std::vector<std::size_t>* ranks) {
  std::vector<TriggerRows::Row>& order = rows->rows_;
  if (order.size() < 2) return;
  // Rule buckets, laid out in (rank, rule) order.
  const std::vector<std::uint32_t>& widths = rows->widths_;
  const std::size_t num_rules = widths.size();
  std::vector<std::size_t> bucket_order(num_rules);
  std::iota(bucket_order.begin(), bucket_order.end(), 0);
  if (ranks != nullptr) {
    std::stable_sort(bucket_order.begin(), bucket_order.end(),
                     [ranks](std::size_t a, std::size_t b) {
                       return (*ranks)[a] < (*ranks)[b];
                     });
  }
  std::vector<std::size_t> count(num_rules, 0);
  for (const TriggerRows::Row& row : order) ++count[row.rule];
  std::vector<std::size_t> start(num_rules, 0);
  std::size_t total = 0;
  for (std::size_t r : bucket_order) {
    start[r] = total;
    if (count[r] > 0) total += count[r] * widths[r];
  }
  // Gather every row's image into its bucket of a fresh arena (stable),
  // radix-sort each bucket's fixed-width records in place, and lay the
  // rows out over the sorted arena — so firing reads it front to back.
  std::vector<Term> sorted(total);
  std::vector<std::size_t> fill = start;
  for (const TriggerRows::Row& row : order) {
    const std::size_t width = widths[row.rule];
    const Term* image = rows->terms_.data() + row.offset;
    std::copy(image, image + width, sorted.data() + fill[row.rule]);
    fill[row.rule] += width;
  }
  std::vector<Term> scratch;
  order.clear();
  for (std::size_t r : bucket_order) {
    if (count[r] == 0) continue;
    const std::size_t width = widths[r];
    if (count[r] > 1 && width > 0) {
      RadixSortRecords(sorted.data() + start[r], count[r], width, &scratch);
    }
    for (std::size_t i = 0; i < count[r]; ++i) {
      order.push_back({static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(start[r] + i * width)});
    }
  }
  rows->terms_.swap(sorted);
}

ParallelChase::ParallelChase(std::size_t num_threads)
    : owned_pool_(std::make_unique<ThreadPool>(
          ThreadPool::ResolveThreadCount(num_threads) - 1)),
      pool_(owned_pool_.get()) {}

ParallelChase::ParallelChase(ThreadPool* pool) : pool_(pool) {}

void ParallelChase::CollectJobs(std::vector<HomSearch>* searches,
                                const std::vector<RuleJob>& jobs,
                                std::uint32_t delta_end,
                                const CollectFn& collect,
                                TriggerRows* out) {
  std::vector<Unit> units;
  for (const RuleJob& job : jobs) {
    HomSearch& search = (*searches)[job.rule_index];
    if (job.full) {
      if (search.source_size() == 0) continue;
      const std::uint32_t chunk_size = ChunkSize(delta_end, num_threads());
      for (std::uint32_t lo = 0; lo < delta_end; lo += chunk_size) {
        units.push_back({job.rule_index, 0, lo,
                         std::min(delta_end, lo + chunk_size), true, 0});
      }
      continue;
    }
    if (job.delta_begin >= delta_end) continue;
    search.PrepareDelta();  // build anchor orders before going concurrent
    const std::uint32_t chunk_size =
        ChunkSize(delta_end - job.delta_begin, num_threads());
    for (std::size_t anchor = 0; anchor < search.source_size(); ++anchor) {
      for (std::uint32_t lo = job.delta_begin; lo < delta_end;
           lo += chunk_size) {
        units.push_back({job.rule_index, anchor, lo,
                         std::min(delta_end, lo + chunk_size), false,
                         job.delta_begin});
      }
    }
  }
  RunUnits(
      pool_, units,
      [&](const Unit& unit, TriggerRows* batch) {
        const auto visit = [&](const Term* image) {
          collect(unit.rule, image, batch);
          return true;
        };
        if (unit.full) {
          (*searches)[unit.rule].ForEachFirstIn(unit.lo, unit.hi, {}, visit);
        } else {
          (*searches)[unit.rule].ForEachDeltaAnchor(unit.anchor,
                                                    unit.delta_begin,
                                                    delta_end, unit.lo,
                                                    unit.hi, {}, visit);
        }
      },
      out);
}

void ParallelChase::ParallelCheck(
    std::size_t count, const std::function<bool(std::size_t)>& check,
    std::vector<char>* out) {
  BDDFC_OBS_SPAN(check_span, "chase", "chase.precheck");
  check_span.Arg("candidates", count);
  out->assign(count, 0);
  ParallelFor(pool_, 0, count, /*grain=*/8,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  (*out)[i] = check(i) ? 1 : 0;
                }
              });
}

}  // namespace exec
}  // namespace bddfc
