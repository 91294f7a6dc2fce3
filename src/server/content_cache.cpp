#include "server/content_cache.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "api/campaign_wire.hpp"
#include "common/hash.hpp"

namespace ftsched {
namespace server {

namespace {

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

ContentCache::ContentCache(std::size_t capacity)
    : capacity_(capacity),
      hits_(obs::Registry::global().counter("server.cache.hit")),
      misses_(obs::Registry::global().counter("server.cache.miss")),
      evictions_(obs::Registry::global().counter("server.cache.evict")) {}

std::size_t ContentCache::size() const {
  const std::lock_guard<std::mutex> guard(lock_);
  return instances_.size() + schedules_.size() + templates_.size();
}

void ContentCache::evict_to_capacity() {
  while (instances_.size() + schedules_.size() + templates_.size() >
         capacity_) {
    // O(entries) scan for the oldest tick — fine at cache-capacity scale,
    // and it keeps every structure a plain ordered map (no intrusive LRU
    // list to get wrong under the single lock).
    std::uint64_t oldest = ~std::uint64_t{0};
    int family = -1;
    std::map<std::string, Slot<const Instance>>::iterator it_i;
    std::map<std::string, Slot<const CachedSchedule>>::iterator it_s;
    std::map<std::string, Slot<const CachedTemplate>>::iterator it_t;
    for (auto it = instances_.begin(); it != instances_.end(); ++it)
      if (it->second.last_used < oldest) {
        oldest = it->second.last_used;
        family = 0;
        it_i = it;
      }
    for (auto it = schedules_.begin(); it != schedules_.end(); ++it)
      if (it->second.last_used < oldest) {
        oldest = it->second.last_used;
        family = 1;
        it_s = it;
      }
    for (auto it = templates_.begin(); it != templates_.end(); ++it)
      if (it->second.last_used < oldest) {
        oldest = it->second.last_used;
        family = 2;
        it_t = it;
      }
    if (family == 0) instances_.erase(it_i);
    if (family == 1) schedules_.erase(it_s);
    if (family == 2) templates_.erase(it_t);
    evictions_.add(1);
  }
}

std::shared_ptr<const Instance> ContentCache::instance(
    const std::string& bytes, std::uint64_t* hash) {
  const std::uint64_t key_hash = caft::fnv1a64(bytes);
  if (hash != nullptr) *hash = key_hash;
  const std::string key = "i/" + hex64(key_hash);

  const std::lock_guard<std::mutex> guard(lock_);
  ++tick_;
  const auto it = instances_.find(key);
  if (it != instances_.end()) {
    it->second.last_used = tick_;
    hits_.add(1);
    return it->second.value;
  }
  misses_.add(1);
  std::istringstream in(bytes);
  auto loaded = std::make_shared<const Instance>(Instance::load(in));
  if (capacity_ == 0) return loaded;
  instances_[key] = {loaded, tick_};
  evict_to_capacity();
  return loaded;
}

std::shared_ptr<const ContentCache::CachedSchedule> ContentCache::schedule(
    const std::shared_ptr<const Instance>& instance,
    std::uint64_t instance_hash, const std::string& algorithm,
    const ScheduleRequest& request) {
  // The request fingerprint is the shared wire encoding — one line that
  // covers every field that can change a schedule, maintained in exactly
  // one place (api/campaign_wire.cpp).
  std::ostringstream fingerprint;
  wire::write_request_line(fingerprint, request);
  const std::string key =
      "s/" + hex64(instance_hash) + "/" + algorithm + "/" + fingerprint.str();

  const std::lock_guard<std::mutex> guard(lock_);
  ++tick_;
  const auto it = schedules_.find(key);
  if (it != schedules_.end()) {
    it->second.last_used = tick_;
    hits_.add(1);
    return it->second.value;
  }
  misses_.add(1);
  const auto scheduler = SchedulerRegistry::global().make(algorithm);
  auto cached = std::make_shared<const CachedSchedule>(
      CachedSchedule{instance, scheduler->schedule(*instance, request), key});
  if (capacity_ == 0) return cached;
  schedules_[key] = {cached, tick_};
  evict_to_capacity();
  return cached;
}

std::shared_ptr<const ContentCache::CachedTemplate>
ContentCache::replay_template(
    const std::shared_ptr<const CachedSchedule>& schedule) {
  // The schedule key already pins instance content, algorithm and request;
  // the exact-only engine has no result-changing option of its own.
  const std::string key = "t/" + schedule->key;

  const std::lock_guard<std::mutex> guard(lock_);
  ++tick_;
  const auto it = templates_.find(key);
  if (it != templates_.end()) {
    it->second.last_used = tick_;
    hits_.add(1);
    return it->second.value;
  }
  misses_.add(1);
  auto engine = std::make_unique<const caft::ReplayEngine>(
      schedule->result.schedule, schedule->instance->costs());
  auto cached = std::make_shared<const CachedTemplate>(
      CachedTemplate{schedule, std::move(engine)});
  if (capacity_ == 0) return cached;
  templates_[key] = {cached, tick_};
  evict_to_capacity();
  return cached;
}

}  // namespace server
}  // namespace ftsched
