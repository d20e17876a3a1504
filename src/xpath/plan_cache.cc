#include "xpath/plan_cache.h"

namespace pxq::xpath {

std::shared_ptr<const Plan> PlanCache::Lookup(std::string_view text,
                                              uint64_t pool_gen,
                                              uint64_t env_fp,
                                              uint64_t stats_epoch) {
  MutexLock lock(&mu_);
  auto it = map_.find(text);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  const Plan& plan = *it->second.plan;
  const bool valid = plan.env_fp == env_fp &&
                     (plan.fully_resolved || plan.pool_gen == pool_gen) &&
                     (plan.stats_epoch == 0 ||
                      plan.stats_epoch == stats_epoch);
  if (!valid) {
    // Epoch-invalidated: the caller recompiles and re-inserts.
    lru_.erase(it->second.lru_it);
    map_.erase(it);
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++hits_;
  return it->second.plan;
}

void PlanCache::Insert(std::string_view text,
                       std::shared_ptr<const Plan> plan) {
  MutexLock lock(&mu_);
  auto it = map_.find(text);
  if (it != map_.end()) {
    // Concurrent compile race: last writer wins, LRU position refreshed.
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (map_.size() >= capacity_ && !lru_.empty()) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  lru_.emplace_front(text);
  map_.emplace(lru_.front(), Entry{std::move(plan), lru_.begin()});
}

void PlanCache::RegisterMetrics(obs::MetricsRegistry* reg) const {
  reg->RegisterHistogram("pxq_plan_compile_ns", &compile_ns_);
  reg->RegisterGroup([this](std::vector<std::pair<std::string, int64_t>>* o) {
    MutexLock lock(&mu_);
    o->emplace_back("pxq_plan_cache_hits", hits_);
    o->emplace_back("pxq_plan_cache_misses", misses_);
    o->emplace_back("pxq_plan_cache_evictions", evictions_);
    o->emplace_back("pxq_plan_cache_size", static_cast<int64_t>(map_.size()));
  });
}

}  // namespace pxq::xpath
