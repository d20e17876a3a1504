// Process-wide compiled-plan cache: query text -> shared immutable
// Plan, shared across every reader thread and every transaction of a
// database. Entries are epoch-validated like the index's probe memos:
// a hit requires the compile-environment fingerprint to match and the
// plan to be either fully resolved (baked QnameIds are immutable, so
// such a plan never goes stale) or compiled at the current qname-pool
// generation (a plan that baked a never-interned name as "matches
// nothing" must recompile once the pool grows — the name may exist
// now). Stale entries are dropped on lookup; capacity evictions are
// LRU. Thread-safe: lookups run under the database's shared read lock
// from many threads concurrently.
#ifndef PXQ_XPATH_PLAN_CACHE_H_
#define PXQ_XPATH_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "xpath/plan.h"

namespace pxq::xpath {

class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 512) : capacity_(capacity) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan iff it is valid under the caller's current
  /// pool generation + environment fingerprint; drops stale entries.
  /// `stats_epoch` is the index's current publish epoch: a plan whose
  /// SHAPE was steered by cardinality estimates (plan->stats_epoch != 0)
  /// additionally requires its stamped epoch to match, so stats
  /// movement recompiles exactly the plans whose ordering decisions it
  /// could change — estimate-free plans never invalidate on commits.
  std::shared_ptr<const Plan> Lookup(std::string_view text,
                                     uint64_t pool_gen, uint64_t env_fp,
                                     uint64_t stats_epoch = 0);

  void Insert(std::string_view text, std::shared_ptr<const Plan> plan);

  /// Record one compilation's wall-time (misses only — hits never
  /// compile). Called by the Evaluator after CompileText.
  void RecordCompile(int64_t ns) { compile_ns_.Record(ns); }

  /// Expose the cache through a registry — its only stats surface: the
  /// compile-time histogram by reference, and hits / misses (cold
  /// lookups AND stale-entry recompiles) / evictions (capacity, LRU) /
  /// size as one group read under ONE mu_ acquisition, so hits + misses
  /// always equals the number of completed lookups.
  void RegisterMetrics(obs::MetricsRegistry* reg) const;

 private:
  struct Entry {
    std::shared_ptr<const Plan> plan;
    std::list<std::string>::iterator lru_it;
  };
  /// Heterogeneous lookup: a warm hit must not allocate a key string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable Mutex mu_;
  size_t capacity_;  // set at construction, immutable thereafter
  std::list<std::string> lru_ PXQ_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, Entry, StringHash, std::equal_to<>> map_
      PXQ_GUARDED_BY(mu_);
  int64_t hits_ PXQ_GUARDED_BY(mu_) = 0;
  int64_t misses_ PXQ_GUARDED_BY(mu_) = 0;
  int64_t evictions_ PXQ_GUARDED_BY(mu_) = 0;
  /// Compile wall-time (ns); recorded outside mu_ (lock-free histogram).
  obs::Histogram compile_ns_;
};

}  // namespace pxq::xpath

#endif  // PXQ_XPATH_PLAN_CACHE_H_
