// Sharded serving benchmark: what does the bulkhead seam cost, and how
// small is the blast radius when a shard's durable state goes bad?
//
// Part 1 — throughput matrix. The same request volume is served by a
// catalog of 1 / 10 / 100 product shards at 1 / 4 / 8 workers
// (round-robin across products), measuring end-to-end purchase
// throughput and p50/p99 latency. One shard at one worker is the
// pre-shard serving path; the rest shows what per-lane tickets,
// sequencers, and per-shard journals add or amortize.
//
// Part 2 — quarantine blast radius. At the largest shard count, one
// shard's journal tears mid-append (`journal.append@victim:1:enospc`).
// Measured: how many requests failed or were shed (and that every one
// of them named the victim), how many other shards missed a beat
// (must be zero), and how long the background recovery loop took to
// re-admit the victim from its snapshot + O(delta) journal tail.
//
// Flags:
//   --requests=N       total purchases per matrix cell (default 6000)
//   --seed=N           master seed (default 20190642)
//   --fast             smoke-sized run: 1200 requests, shards {1,4,12},
//                      workers {1,4}
//   --bench-json=PATH  write the numbers as JSON (BENCH_shard.json)

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "market/catalog.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "service/service.h"

namespace {

using nimbus::Rng;
using nimbus::Status;
using nimbus::StatusOr;
using nimbus::market::Broker;
using nimbus::market::Catalog;
using nimbus::market::CatalogOptions;
using nimbus::market::Marketplace;
using nimbus::market::Shard;
using nimbus::market::ShardState;
using nimbus::service::MarketService;
using nimbus::service::PurchaseRequest;
using nimbus::service::PurchaseResult;
using nimbus::service::ServiceOptions;

int g_failures = 0;

#define BENCH_CHECK(cond, ...)                          \
  do {                                                  \
    if (!(cond)) {                                      \
      ++g_failures;                                     \
      std::printf("CHECK FAILED [%s:%d] ", __FILE__, __LINE__); \
      std::printf(__VA_ARGS__);                         \
      std::printf("\n");                                \
    }                                                   \
  } while (0)

int IntFlag(int argc, char** argv, const char* name, int fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoi(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::string StringFlag(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

bool BoolFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) {
      return true;
    }
  }
  return false;
}

// Same market geometry as bench_soak / bench_quote, so the numbers here
// sit on the same scale as BENCH_soak.json and BENCH_quote.json.
Marketplace MakeMarket(uint64_t seed) {
  Rng rng(seed);
  nimbus::data::ClassificationSpec spec;
  spec.num_examples = 300;
  spec.num_features = 5;
  spec.positive_prob = 0.9;
  nimbus::data::Dataset all = nimbus::data::GenerateClassification(spec, rng);
  Broker::Options options;
  options.error_curve_points = 8;
  options.samples_per_curve_point = 50;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 50.0;
  Marketplace market(nimbus::data::Split(all, 0.75, rng), options);
  auto points = nimbus::market::MakeBuyerPoints(
      nimbus::market::ValueShape::kConcave,
      nimbus::market::DemandShape::kUniform, 10, 1.0, 50.0, 80.0, 2.0);
  nimbus::market::Seller seller = *nimbus::market::Seller::Create(*points);
  auto pricing = *seller.NegotiatePricing();
  if (!market
           .AddOffering(nimbus::ml::ModelKind::kLogisticRegression, 0.01,
                        pricing)
           .ok()) {
    std::fprintf(stderr, "market setup failed\n");
    std::exit(2);
  }
  return market;
}

PurchaseRequest MakeRequest(int i) {
  PurchaseRequest request;
  request.buyer_id = "buyer-" + std::to_string(i % 97);
  request.model = nimbus::ml::ModelKind::kLogisticRegression;
  request.inverse_ncp = 1.5 + static_cast<double>(i % 37);
  request.report_loss_name = "zero_one";
  return request;
}

ServiceOptions BenchServiceOptions(uint64_t seed, int workers, int queue) {
  ServiceOptions options;
  options.num_workers = workers;
  options.queue_capacity = queue;
  options.seed = seed;
  options.quote_retry.max_attempts = 6;
  options.quote_retry.initial_delay_seconds = 1e-6;
  options.quote_retry.max_delay_seconds = 1e-4;
  options.journal_retry.max_attempts = 4;
  options.journal_retry.initial_delay_seconds = 1e-6;
  options.journal_retry.max_delay_seconds = 1e-4;
  options.quote_breaker.failure_threshold = 1 << 20;
  options.journal_breaker.failure_threshold = 1 << 20;
  return options;
}

std::string ProductName(int p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "product-%03d", p);
  return std::string(buf);
}

std::string TempRoot(const std::string& tag) {
  return "/tmp/nimbus_bench_shard_" +
         std::to_string(static_cast<long>(::getpid())) + "_" + tag + ".d";
}

CatalogOptions BenchCatalogOptions(const std::string& root) {
  CatalogOptions catalog_options;
  catalog_options.root_dir = root;
  catalog_options.shard_defaults.enable_checkpoints = true;
  catalog_options.shard_defaults.checkpoint_policy.every_records = 64;
  catalog_options.recovery_interval_seconds = 0.005;
  catalog_options.recovery_backoff_base_seconds = 0.005;
  return catalog_options;
}

void PopulateCatalog(Catalog& catalog, int num_shards, uint64_t seed) {
  for (int p = 0; p < num_shards; ++p) {
    const uint64_t mseed = seed + 131 * static_cast<uint64_t>(p);
    const Status added = catalog.AddProduct(
        ProductName(p),
        [mseed]() -> StatusOr<Marketplace> { return MakeMarket(mseed); });
    if (!added.ok()) {
      std::fprintf(stderr, "AddProduct failed: %s\n",
                   added.ToString().c_str());
      std::exit(2);
    }
  }
}

// Best-effort removal of the catalog root and everything under it
// (journal segments, snapshots, manifests).
void CleanupCatalog(const std::string& root) {
  std::error_code ignored;
  std::filesystem::remove_all(root, ignored);
}

struct CellReport {
  int shards = 0;
  int workers = 0;
  int64_t requests = 0;
  int64_t ok = 0;
  double wall_seconds = 0.0;
  double requests_per_second = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct BlastReport {
  int shards = 0;
  int workers = 0;
  int64_t victim_bad = 0;       // Victim requests failed or shed.
  int64_t healthy_bad = 0;      // Must stay 0: the blast radius.
  int64_t healthy_ok = 0;
  int64_t tail_records = 0;     // O(delta) replay at re-admission.
  double recovery_ms = 0.0;     // Quarantine observed -> serving again.
  int64_t quarantined_peak = 0; // Shards quarantined at once (must be 1).
};

void FillQuantiles(CellReport& report) {
  for (const auto& entry : nimbus::telemetry::Registry::Global().Snapshot()) {
    if (entry.name == "service_request_latency_us") {
      report.p50_us = entry.histogram.Quantile(0.50);
      report.p99_us = entry.histogram.Quantile(0.99);
    }
  }
}

// One matrix cell: `requests` purchases round-robin over `num_shards`
// products at `workers` workers.
CellReport RunCell(int num_shards, int workers, int requests, uint64_t seed) {
  nimbus::fault::Reset();
  nimbus::telemetry::Registry::Global().ResetForTest();
  const std::string root = TempRoot("s" + std::to_string(num_shards) + "_w" +
                                    std::to_string(workers));
  Catalog catalog(BenchCatalogOptions(root));
  PopulateCatalog(catalog, num_shards, seed);
  MarketService service(&catalog,
                        BenchServiceOptions(seed, workers, requests + 16));
  if (!service.Start().ok()) {
    std::fprintf(stderr, "Start failed\n");
    std::exit(2);
  }
  // Warm every shard's curve cache off the clock: the matrix measures
  // the steady-state serving path, not one-time Monte-Carlo builds.
  {
    std::vector<std::future<PurchaseResult>> warm;
    for (int p = 0; p < num_shards; ++p) {
      PurchaseRequest request = MakeRequest(p);
      request.product_id = ProductName(p);
      warm.push_back(service.Submit(std::move(request)));
    }
    for (auto& future : warm) {
      BENCH_CHECK(future.get().status.ok(), "warmup request failed");
    }
  }
  nimbus::telemetry::Registry::Global().ResetForTest();

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<PurchaseResult>> futures;
  futures.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    PurchaseRequest request = MakeRequest(i);
    request.product_id = ProductName(i % num_shards);
    futures.push_back(service.Submit(std::move(request)));
  }
  int64_t ok_count = 0;
  for (auto& future : futures) {
    ok_count += future.get().status.ok() ? 1 : 0;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  CellReport report;
  report.shards = num_shards;
  report.workers = workers;
  report.requests = requests;
  report.ok = ok_count;
  report.wall_seconds = wall;
  report.requests_per_second =
      wall > 0.0 ? static_cast<double>(requests) / wall : 0.0;
  FillQuantiles(report);
  BENCH_CHECK(ok_count == requests, "cell s=%d w=%d: %lld/%d ok", num_shards,
              workers, static_cast<long long>(ok_count), requests);

  const Status drained = service.Drain();
  BENCH_CHECK(drained.ok(), "Drain failed: %s", drained.ToString().c_str());
  CleanupCatalog(root);
  return report;
}

// Quarantine blast radius at `num_shards`: tear one shard's journal
// mid-wave, count who else noticed (nobody may), time the re-admission.
BlastReport RunBlast(int num_shards, int workers, int requests,
                     uint64_t seed) {
  nimbus::fault::Reset();
  nimbus::telemetry::Registry::Global().ResetForTest();
  const std::string root = TempRoot("blast");
  Catalog catalog(BenchCatalogOptions(root));
  PopulateCatalog(catalog, num_shards, seed);
  MarketService service(&catalog,
                        BenchServiceOptions(seed, workers, requests + 16));
  if (!service.Start().ok()) {
    std::fprintf(stderr, "Start failed\n");
    std::exit(2);
  }
  const std::string victim = ProductName(num_shards / 2);

  // Warm wave: every shard transacts (and builds its curve) cleanly.
  {
    std::vector<std::future<PurchaseResult>> warm;
    for (int i = 0; i < 4 * num_shards; ++i) {
      PurchaseRequest request = MakeRequest(i);
      request.product_id = ProductName(i % num_shards);
      warm.push_back(service.Submit(std::move(request)));
    }
    for (auto& future : warm) {
      BENCH_CHECK(future.get().status.ok(), "blast warm request failed");
    }
  }

  // Blast wave with the victim's journal armed to tear on its next
  // append. The recovery loop is live, so this measures the real
  // quarantine window under traffic, not a hand-sequenced drill.
  if (!nimbus::fault::Configure("journal.append@" + victim + ":1:enospc")
           .ok()) {
    std::fprintf(stderr, "blast arm failed\n");
    std::exit(2);
  }
  catalog.StartRecoveryLoop();
  BlastReport report;
  report.shards = num_shards;
  report.workers = workers;
  std::vector<std::future<PurchaseResult>> futures;
  std::vector<int> products;
  futures.reserve(requests);
  products.reserve(requests);
  for (int i = 0; i < requests; ++i) {
    PurchaseRequest request = MakeRequest(i);
    request.product_id = ProductName(i % num_shards);
    products.push_back(i % num_shards);
    futures.push_back(service.Submit(std::move(request)));
  }
  const auto blast_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < futures.size(); ++i) {
    const PurchaseResult result = futures[i].get();
    const bool is_victim = ProductName(products[i]) == victim;
    if (result.status.ok()) {
      report.healthy_ok += is_victim ? 0 : 1;
    } else if (is_victim) {
      ++report.victim_bad;
    } else {
      ++report.healthy_bad;
    }
  }
  BENCH_CHECK(report.victim_bad >= 1, "blast: victim never failed");
  BENCH_CHECK(report.healthy_bad == 0,
              "blast: %lld healthy-shard requests failed (radius > 1 shard)",
              static_cast<long long>(report.healthy_bad));
  for (int p = 0; p < num_shards; ++p) {
    Shard* shard = catalog.Find(ProductName(p));
    report.quarantined_peak +=
        shard->stats().quarantines > 0 ? 1 : 0;
  }
  BENCH_CHECK(report.quarantined_peak == 1,
              "blast: %lld shards quarantined, expected 1",
              static_cast<long long>(report.quarantined_peak));

  // Recovery time: from the blast wave draining to the victim serving
  // again (the loop may already have re-admitted it mid-wave; then this
  // reads ~0, which is the honest number).
  Shard* victim_shard = catalog.Find(victim);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (victim_shard->state() != ShardState::kServing &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  report.recovery_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - blast_start)
                           .count();
  BENCH_CHECK(victim_shard->state() == ShardState::kServing,
              "blast: victim never re-admitted (%s)",
              victim_shard->state_detail().c_str());
  report.tail_records = victim_shard->last_restore_report().tail_records;

  // Healed wave: everyone, victim included, transacts again.
  {
    std::vector<std::future<PurchaseResult>> healed;
    for (int i = 0; i < num_shards; ++i) {
      PurchaseRequest request = MakeRequest(i);
      request.product_id = ProductName(i);
      healed.push_back(service.Submit(std::move(request)));
    }
    for (auto& future : healed) {
      BENCH_CHECK(future.get().status.ok(), "healed request failed");
    }
  }

  nimbus::fault::Reset();
  catalog.StopRecoveryLoop();
  const Status drained = service.Drain();
  BENCH_CHECK(drained.ok(), "blast Drain failed: %s",
              drained.ToString().c_str());
  CleanupCatalog(root);
  return report;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  return written == body.size() && std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = BoolFlag(argc, argv, "fast");
  const int requests = IntFlag(argc, argv, "requests", fast ? 1200 : 6000);
  const uint64_t seed =
      static_cast<uint64_t>(IntFlag(argc, argv, "seed", 20190642));
  const std::string bench_json = StringFlag(argc, argv, "bench-json", "");

  const std::vector<int> shard_counts =
      fast ? std::vector<int>{1, 4, 12} : std::vector<int>{1, 10, 100};
  const std::vector<int> worker_counts = fast ? std::vector<int>{1, 4}
                                              : std::vector<int>{1, 4, 8};

  std::printf("== sharded serving matrix (%d requests per cell)\n", requests);
  std::vector<CellReport> cells;
  for (int shards : shard_counts) {
    for (int workers : worker_counts) {
      const CellReport cell = RunCell(shards, workers, requests, seed);
      cells.push_back(cell);
      std::printf(
          "   shards=%3d workers=%d: %7.0f req/s  p50 %7.0f us  p99 %7.0f "
          "us  (%lld/%lld ok)\n",
          cell.shards, cell.workers, cell.requests_per_second, cell.p50_us,
          cell.p99_us, static_cast<long long>(cell.ok),
          static_cast<long long>(cell.requests));
    }
  }

  const int blast_shards = shard_counts.back();
  const int blast_workers = worker_counts.back();
  std::printf("== quarantine blast radius (%d shards, %d workers)\n",
              blast_shards, blast_workers);
  const BlastReport blast =
      RunBlast(blast_shards, blast_workers, requests, seed + 1);
  std::printf(
      "   victim bad=%lld  healthy bad=%lld (ok=%lld)  quarantined=%lld "
      "shard(s)  re-admitted in %.1f ms with %lld tail records\n",
      static_cast<long long>(blast.victim_bad),
      static_cast<long long>(blast.healthy_bad),
      static_cast<long long>(blast.healthy_ok),
      static_cast<long long>(blast.quarantined_peak), blast.recovery_ms,
      static_cast<long long>(blast.tail_records));

  if (!bench_json.empty()) {
    std::string out =
        "{\n  \"benchmark\": \"bench_shard\",\n"
        "  \"description\": \"Sharded serving matrix (same request volume "
        "over 1/10/100 product shards at 1/4/8 workers; per-shard journals "
        "+ checkpoints enabled, curves pre-warmed) and quarantine blast "
        "radius at the largest cell: one shard's journal torn mid-append, "
        "healthy_bad must be 0 and quarantined_shards must be 1. "
        "Regenerate with bench_shard --bench-json=BENCH_shard.json.\",\n";
    char buf[512];
    std::snprintf(buf, sizeof(buf), "  \"requests_per_cell\": %d,\n",
                  requests);
    out += buf;
    out += "  \"matrix\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
      const CellReport& c = cells[i];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"shards\":%d,\"workers\":%d,\"requests_per_second\":%.6g,"
          "\"p50_us\":%.6g,\"p99_us\":%.6g,\"ok\":%lld}%s\n",
          c.shards, c.workers, c.requests_per_second, c.p50_us, c.p99_us,
          static_cast<long long>(c.ok), i + 1 < cells.size() ? "," : "");
      out += buf;
    }
    out += "  ],\n  \"blast_radius\": ";
    std::snprintf(
        buf, sizeof(buf),
        "{\"shards\":%d,\"workers\":%d,\"victim_bad\":%lld,"
        "\"healthy_bad\":%lld,\"healthy_ok\":%lld,\"quarantined_shards\":%lld,"
        "\"recovery_ms\":%.6g,\"tail_records\":%lld}\n}\n",
        blast.shards, blast.workers,
        static_cast<long long>(blast.victim_bad),
        static_cast<long long>(blast.healthy_bad),
        static_cast<long long>(blast.healthy_ok),
        static_cast<long long>(blast.quarantined_peak), blast.recovery_ms,
        static_cast<long long>(blast.tail_records));
    out += buf;
    if (!WriteFile(bench_json, out)) {
      std::fprintf(stderr, "cannot write %s\n", bench_json.c_str());
      return 2;
    }
    std::printf("bench json written to %s\n", bench_json.c_str());
  }

  if (g_failures != 0) {
    std::printf("FAIL: %d check failure(s)\n", g_failures);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
