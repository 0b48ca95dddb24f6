#include "market/catalog.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace nimbus::market {
namespace {

telemetry::Gauge& CatalogShardsGauge() {
  static telemetry::Gauge& gauge =
      telemetry::Registry::Global().GetGauge("catalog_shards");
  return gauge;
}

telemetry::Gauge& CatalogRevenueGauge() {
  static telemetry::Gauge& gauge =
      telemetry::Registry::Global().GetGauge("catalog_revenue");
  return gauge;
}

}  // namespace

Catalog::Catalog(CatalogOptions options) : options_(std::move(options)) {}

Catalog::~Catalog() { StopRecoveryLoop(); }

Status Catalog::AddProduct(const std::string& product_id,
                           MarketplaceFactory factory) {
  if (by_product_.count(product_id) > 0) {
    return InvalidArgumentError("product '" + product_id +
                                "' already in the catalog");
  }
  if (product_id.find('/') != std::string::npos) {
    return InvalidArgumentError("product id '" + product_id +
                                "' must not contain '/'");
  }
  ShardOptions shard_options = options_.shard_defaults;
  shard_options.dir = options_.root_dir + "/shards/" + product_id;
  NIMBUS_ASSIGN_OR_RETURN(
      std::unique_ptr<Shard> shard,
      Shard::Open(product_id, std::move(factory), std::move(shard_options)));
  const int index = static_cast<int>(shards_.size());
  shards_.push_back(std::move(shard));
  backoff_.push_back(BackoffState{});
  by_product_.emplace(product_id, index);
  // Ring points for the new shard; kept sorted for binary-search routing.
  const int replicas = std::max(1, options_.ring_replicas);
  for (int r = 0; r < replicas; ++r) {
    ring_.push_back(RingPoint{
        Fnv1a64(product_id + "#" + std::to_string(r), kSeedMixBasis), index});
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const RingPoint& a, const RingPoint& b) {
              return a.hash < b.hash || (a.hash == b.hash &&
                                         a.shard_index < b.shard_index);
            });
  CatalogShardsGauge().Set(static_cast<double>(shards_.size()));
  return OkStatus();
}

Shard* Catalog::Find(const std::string& product_id) {
  auto it = by_product_.find(product_id);
  return it == by_product_.end() ? nullptr : shards_[it->second].get();
}

Shard* Catalog::Route(const std::string& key) {
  if (Shard* exact = Find(key)) {
    return exact;
  }
  if (ring_.empty()) {
    return nullptr;
  }
  // Successor on the ring (wrap past the last point).
  const uint64_t h = Fnv1a64(key, kSeedMixBasis);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const RingPoint& p, uint64_t value) { return p.hash < value; });
  if (it == ring_.end()) {
    it = ring_.begin();
  }
  return shards_[it->shard_index].get();
}

int Catalog::RecoverQuarantined(bool force) {
  const auto now = std::chrono::steady_clock::now();
  int recovered = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    if (shard->state() != ShardState::kQuarantined) {
      backoff_[i].failures = 0;
      continue;
    }
    if (!force && now < backoff_[i].next_attempt) {
      continue;
    }
    if (shard->TryRecover().ok()) {
      backoff_[i].failures = 0;
      ++recovered;
    } else {
      const double delay = std::min(
          options_.recovery_backoff_cap_seconds,
          options_.recovery_backoff_base_seconds *
              static_cast<double>(1 << std::min(backoff_[i].failures, 10)));
      ++backoff_[i].failures;
      backoff_[i].next_attempt =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(static_cast<int64_t>(delay * 1e6));
    }
  }
  return recovered;
}

void Catalog::RecoveryLoop() {
  std::unique_lock<std::mutex> lock(loop_mu_);
  while (!loop_stop_) {
    loop_cv_.wait_for(
        lock, std::chrono::microseconds(static_cast<int64_t>(
                  options_.recovery_interval_seconds * 1e6)));
    if (loop_stop_) {
      break;
    }
    lock.unlock();
    RecoverQuarantined();
    CatalogRevenueGauge().Set(GetRollup().total_revenue);
    lock.lock();
  }
}

void Catalog::StartRecoveryLoop() {
  std::lock_guard<std::mutex> lock(loop_mu_);
  if (loop_running_) {
    return;
  }
  loop_stop_ = false;
  loop_running_ = true;
  loop_ = std::thread([this] { RecoveryLoop(); });
}

void Catalog::StopRecoveryLoop() {
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    if (!loop_running_) {
      return;
    }
    loop_stop_ = true;
  }
  loop_cv_.notify_all();
  loop_.join();
  std::lock_guard<std::mutex> lock(loop_mu_);
  loop_running_ = false;
}

bool Catalog::recovery_loop_running() const {
  std::lock_guard<std::mutex> lock(loop_mu_);
  return loop_running_;
}

Catalog::Rollup Catalog::GetRollup() const {
  Rollup rollup;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    // Cached booked totals: the live ledger belongs to the shard's
    // committer, and this runs on the recovery-loop / admin thread.
    const Shard::Stats stats = shard->stats();
    rollup.total_revenue += stats.revenue;
    rollup.total_sales += stats.sales;
    switch (shard->state()) {
      case ShardState::kServing:
        ++rollup.serving;
        break;
      case ShardState::kDegraded:
        ++rollup.degraded;
        break;
      case ShardState::kRecovering:
        ++rollup.recovering;
        break;
      case ShardState::kQuarantined:
        ++rollup.quarantined;
        break;
    }
  }
  return rollup;
}

}  // namespace nimbus::market
