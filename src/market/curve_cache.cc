#include "market/curve_cache.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/hash.h"
#include "common/telemetry.h"

namespace nimbus::market {
namespace {

telemetry::Counter& HitsCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("curve_cache_hits_total");
  return counter;
}

telemetry::Counter& MissesCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("curve_cache_misses_total");
  return counter;
}

telemetry::Counter& StaleServedCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("curve_cache_stale_served_total");
  return counter;
}

telemetry::Counter& InflightWaitsCounter() {
  static telemetry::Counter& counter = telemetry::Registry::Global().GetCounter(
      "curve_cache_inflight_waits_total");
  return counter;
}

telemetry::Counter& BuildsCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("curve_cache_builds_total");
  return counter;
}

telemetry::Counter& BuildFailuresCounter() {
  static telemetry::Counter& counter = telemetry::Registry::Global().GetCounter(
      "curve_cache_build_failures_total");
  return counter;
}

telemetry::Counter& InvalidationsCounter() {
  static telemetry::Counter& counter = telemetry::Registry::Global().GetCounter(
      "curve_cache_invalidations_total");
  return counter;
}

telemetry::Gauge& EntriesGauge() {
  static telemetry::Gauge& gauge =
      telemetry::Registry::Global().GetGauge("curve_cache_entries");
  return gauge;
}

telemetry::Histogram& BuildLatency() {
  static telemetry::Histogram& histogram =
      telemetry::Registry::Global().GetHistogram(
          "curve_cache_build_latency_us");
  return histogram;
}

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  // 64-bit FNV-1a over the value's 8 bytes, least significant first.
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(value >> (8 * i));
  }
  return Fnv1a64(std::string_view(bytes, sizeof(bytes)), hash);
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void AppendHex(std::string* out, uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  out->append(buf);
}

}  // namespace

uint64_t FingerprintDataset(const data::Dataset& dataset) {
  uint64_t hash = kFnv64OffsetBasis;
  hash = FnvMix(hash, static_cast<uint64_t>(dataset.num_features()));
  hash = FnvMix(hash, static_cast<uint64_t>(dataset.num_examples()));
  hash = FnvMix(hash, static_cast<uint64_t>(dataset.task()));
  for (const data::Example& example : dataset.examples()) {
    for (double feature : example.features) {
      hash = FnvMix(hash, DoubleBits(feature));
    }
    hash = FnvMix(hash, DoubleBits(example.target));
  }
  return hash;
}

std::string CurveKey::ToString() const {
  std::string out;
  out.reserve(96 + model.size() + mechanism.size() + loss.size());
  AppendHex(&out, dataset_fingerprint);
  out += '/';
  out += model;
  out += '/';
  out += mechanism;
  out += '/';
  out += loss;
  out += '/';
  AppendHex(&out, seed);
  out += '/';
  AppendHex(&out, DoubleBits(min_inverse_ncp));
  out += '/';
  AppendHex(&out, DoubleBits(max_inverse_ncp));
  out += '/';
  out += std::to_string(grid_points);
  out += 'x';
  out += std::to_string(samples_per_point);
  return out;
}

CurveCache::Slot* CurveCache::GetSlot(const CurveKey& key) {
  const std::string id = key.ToString();
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    auto it = slots_.find(id);
    if (it != slots_.end()) {
      return it->second.get();
    }
  }
  std::unique_lock<std::shared_mutex> lock(map_mu_);
  auto [it, inserted] = slots_.try_emplace(id);
  if (inserted) {
    it->second = std::make_unique<Slot>();
    EntriesGauge().Set(static_cast<double>(slots_.size()));
  }
  return it->second.get();
}

StatusOr<std::shared_ptr<const pricing::ErrorCurve>> CurveCache::GetOrBuild(
    const CurveKey& key, const Builder& build, StalePolicy policy,
    const CancelToken* cancel) {
  Slot* slot = GetSlot(key);
  std::unique_lock<prof::ProfiledMutex> lock(slot->mu);
  bool counted_wait = false;
  while (true) {
    if (slot->version == slot->target_version && slot->curve != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      HitsCounter().Increment();
      return slot->curve;
    }
    if (slot->building) {
      if (policy == StalePolicy::kServeStale && slot->curve != nullptr) {
        stale_served_.fetch_add(1, std::memory_order_relaxed);
        StaleServedCounter().Increment();
        return slot->curve;
      }
      if (!counted_wait) {
        counted_wait = true;
        inflight_waits_.fetch_add(1, std::memory_order_relaxed);
        InflightWaitsCounter().Increment();
      }
      const uint64_t waited_epoch = slot->build_epoch;
      while (slot->building) {
        NIMBUS_RETURN_IF_ERROR(
            CancelToken::Check(cancel, "curve-cache in-flight wait"));
        slot->cv.wait_for(lock, std::chrono::milliseconds(1));
      }
      if (slot->build_epoch != waited_epoch && slot->version != slot->target_version) {
        // The build this requester waited on completed without
        // committing; hand its status through rather than silently
        // becoming a second builder (the next fresh call retries).
        return slot->last_build_error;
      }
      continue;  // Re-evaluate: either committed (hit) or retry.
    }
    // Become the builder.
    misses_.fetch_add(1, std::memory_order_relaxed);
    MissesCounter().Increment();
    slot->building = true;
    const int64_t commit_version = slot->target_version;
    lock.unlock();

    StatusOr<pricing::ErrorCurve> built = [&] {
      telemetry::ScopedTimer timer(BuildLatency());
      builds_.fetch_add(1, std::memory_order_relaxed);
      BuildsCounter().Increment();
      return build();
    }();

    lock.lock();
    slot->building = false;
    ++slot->build_epoch;
    if (built.ok()) {
      slot->curve = std::make_shared<const pricing::ErrorCurve>(
          std::move(built).value());
      // Invalidations during the build keep the entry stale: commit at
      // the version we set out to build, not whatever target the key has
      // now, so the next requester rebuilds against the new target.
      slot->version = commit_version;
      slot->last_build_error = OkStatus();
      slot->cv.notify_all();
      if (slot->version == slot->target_version) {
        std::shared_ptr<const pricing::ErrorCurve> out = slot->curve;
        return out;
      }
      continue;  // Invalidated mid-build; loop decides what to do next.
    }
    build_failures_.fetch_add(1, std::memory_order_relaxed);
    BuildFailuresCounter().Increment();
    slot->last_build_error = built.status();
    slot->cv.notify_all();
    return built.status();
  }
}

void CurveCache::Invalidate(const CurveKey& key) {
  const std::string id = key.ToString();
  Slot* slot = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    auto it = slots_.find(id);
    if (it == slots_.end()) {
      return;
    }
    slot = it->second.get();
  }
  std::lock_guard<prof::ProfiledMutex> lock(slot->mu);
  if (slot->target_version == slot->version) {
    ++slot->target_version;
  }
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  InvalidationsCounter().Increment();
}

int64_t CurveCache::VersionOf(const CurveKey& key) const {
  const std::string id = key.ToString();
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  auto it = slots_.find(id);
  if (it == slots_.end()) {
    return 0;
  }
  std::lock_guard<prof::ProfiledMutex> slot_lock(it->second->mu);
  return it->second->version;
}

size_t CurveCache::size() const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  return slots_.size();
}

CurveCache::Stats CurveCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.stale_served = stale_served_.load(std::memory_order_relaxed);
  stats.inflight_waits = inflight_waits_.load(std::memory_order_relaxed);
  stats.builds = builds_.load(std::memory_order_relaxed);
  stats.build_failures = build_failures_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace nimbus::market
