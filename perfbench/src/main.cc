// One round of the purchase-path benchmark for the catalog-mode
// MarketService (perfbench/run.py runs one process per round, repeats
// rounds and reports medians; see perfbench/README.md).
//
//   perfbench --workload <single_product|many_products|journal_only>
//             --seed <n> --trace <0|1> [--root <dir>] [--spans <file>]
//
// A round starts from an empty data root in a fresh process, so every
// timed phase is fixed work from a fixed state:
//
//   setup     list the products (training + seller pricing), grow each
//             shard to its starting history, start the service (curve
//             builds), warm up                        -> setup_s
//   open loop a seeded Poisson schedule at the workload's fixed rate;
//             latency from each request's due time     -> p50, p99
//   capacity  closed loop, fixed window and request count
//                                                      -> capacity_rps,
//                                                         cpu_us_per_purchase
//   drain     graceful drain, then bytes on disk       -> disk_bytes_per_sale
//   restart   a fresh Catalog over the same root, Start
//                                                      -> restart_s
//
// Every output is checked; a failed check makes the process exit 1.
// With --trace 1 the round also records spans and replays requests
// through the layers, and reports per-layer numbers.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <fcntl.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flight_recorder.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "harness.h"
#include "market/auditor.h"
#include "market/catalog.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "service/service.h"

namespace {

using nimbus::Rng;
using nimbus::Status;
using nimbus::StatusCode;
using nimbus::StatusOr;
using nimbus::market::Auditor;
using nimbus::market::AuditorOptions;
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
using nimbus::telemetry::HistogramSnapshot;
using nimbus::telemetry::Registry;
using perfbench::PhaseCounts;
using perfbench::SpanRecorder;

namespace fs = std::filesystem;

// Threads. Service workers plus the one load-generator thread stay at
// nproc - 1 on the 4-CPU reference host: a third worker beside a
// spinning generator made p99 jump from ~0.1 ms to several ms.
constexpr int kWorkers = 2;
// Width of the library's ParallelFor pool (training, curve estimation)
// during set-up and restart, pinned so set-up time does not depend on
// the host's core count.
constexpr const char* kNimbusThreads = "2";
// Examples per product dataset (75% train, 25% evaluation).
constexpr int kExamples = 400;
constexpr int kBuyers = 1000;
constexpr auto kModel = nimbus::ml::ModelKind::kLogisticRegression;
// Requests replayed one at a time through the layers in a traced round.
constexpr int kReplayRequests = 2000;

struct Workload {
  const char* name;
  int shards;
  bool checkpoints;
  bool auditor;
  int preload;     // Sales grown into the shards before warm-up.
  int warmup;      // Closed-loop requests before the timed phases.
  double rate;     // Open-loop offered rate, requests per second.
  int open_loop;   // Requests in the open-loop phase.
  int capacity;    // Requests in the closed-loop capacity phase.
  int window;      // Requests kept outstanding in the capacity phase.
  int restarts;    // Restarts per round (restart_s is their median).
};

// Why these three: see perfbench/README.md. Request counts of the
// 100-shard workload are multiples of 100 so every product gets the same
// number of requests in every phase.
const Workload kWorkloads[] = {
    {"single_product", 1, true, false, 20000, 256, 500.0, 1500, 3000, 64, 5},
    {"many_products", 100, false, true, 0, 200, 20000.0, 40000, 60000, 256,
     1},
    {"journal_only", 1, false, false, 20000, 256, 10000.0, 20000, 100000,
     256, 3},
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Checks. Every failed check is printed and fails the run.

std::vector<std::string> g_failures;

void Check(bool ok, const char* fmt, ...) {
  if (ok) {
    return;
  }
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::printf("CHECK FAILED: %s\n", buf);
  g_failures.emplace_back(buf);
}

// ---------------------------------------------------------------------------
// Products and requests.

std::string ProductName(int p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "product-%03d", p);
  return buf;
}

uint64_t ProductSeed(uint64_t seed, int p) {
  return seed * 1000003ull + 7919ull * static_cast<uint64_t>(p + 1);
}

// One product: a seeded classification dataset, a logistic-regression
// offering with the library-default broker (25-point x 200-draw error
// curves over inverse-NCP [1, 100]) and the seller's revenue-optimal
// pricing. The factory runs at every shard open, so listing cost is paid
// by set-up and by every restart.
StatusOr<Marketplace> MakeProduct(uint64_t seed) {
  Rng rng(seed);
  nimbus::data::ClassificationSpec spec;
  spec.num_examples = kExamples;
  spec.num_features = 5;
  spec.positive_prob = 0.9;
  nimbus::data::Dataset all = nimbus::data::GenerateClassification(spec, rng);
  const Broker::Options options;
  Marketplace market(nimbus::data::Split(all, 0.75, rng), options);
  auto points = nimbus::market::MakeBuyerPoints(
      nimbus::market::ValueShape::kConcave,
      nimbus::market::DemandShape::kUniform, 10, options.min_inverse_ncp,
      options.max_inverse_ncp, 80.0, 2.0);
  if (!points.ok()) return points.status();
  auto seller = nimbus::market::Seller::Create(*points);
  if (!seller.ok()) return seller.status();
  auto pricing = seller->NegotiatePricing();
  if (!pricing.ok()) return pricing.status();
  Status added = market.AddOffering(kModel, 0.01, *pricing);
  if (!added.ok()) return added;
  return market;
}

struct Planned {
  int product = 0;
  std::string buyer;
  double inverse_ncp = 0.0;
};

// The seeded request stream. Buyer ids have a fixed width and each
// product walks the seeded population in order, so the number of
// distinct buyers per shard (and with it every byte written) is the same
// for every seed. Products are a seeded shuffle of a balanced block.
class RequestStream {
 public:
  RequestStream(uint64_t seed, int shards)
      : rng_(seed ^ 0x5eedf00dull), shards_(shards), cursor_(shards, 0) {
    std::vector<int> order(kBuyers);
    for (int i = 0; i < kBuyers; ++i) order[i] = i;
    Shuffle(order);
    for (int id : order) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "buyer-%06d", id);
      population_.emplace_back(buf);
    }
  }

  std::vector<Planned> Next(int count) {
    std::vector<int> products(count);
    for (int i = 0; i < count; ++i) products[i] = i % shards_;
    Shuffle(products);
    const Broker::Options broker;
    std::vector<Planned> plan(count);
    for (int i = 0; i < count; ++i) {
      Planned& p = plan[i];
      p.product = products[i];
      p.buyer = population_[cursor_[p.product]++ % kBuyers];
      // Continuous, anywhere in the broker's supported range.
      p.inverse_ncp =
          rng_.Uniform(broker.min_inverse_ncp, broker.max_inverse_ncp);
    }
    return plan;
  }

 private:
  void Shuffle(std::vector<int>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng_.UniformInt(i)]);
    }
  }

  Rng rng_;
  int shards_;
  std::vector<int64_t> cursor_;
  std::vector<std::string> population_;
};

PurchaseRequest ToRequest(const Planned& p) {
  PurchaseRequest request;
  request.buyer_id = p.buyer;
  request.model = kModel;
  request.inverse_ncp = p.inverse_ncp;
  request.product_id = ProductName(p.product);
  return request;
}

// ---------------------------------------------------------------------------
// Process and file-system probes.

struct ProcSample {
  int64_t cpu_us = 0;
  int64_t ctx_switches = 0;
  int64_t wchar = 0;
};

int64_t ReadWchar() {
  std::ifstream io("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return -1;
}

ProcSample SampleProc() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcSample s;
  s.cpu_us = (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1000000ll +
             usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
  s.ctx_switches = usage.ru_nvcsw + usage.ru_nivcsw;
  s.wchar = ReadWchar();
  return s;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

int64_t BytesUnder(const fs::path& root) {
  int64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      total += static_cast<int64_t>(entry.file_size());
    }
  }
  return total;
}

// Writes back everything dirty on the data root's file system, so that
// write-back of untimed work (set-up, the previous restart's drain
// checkpoint) does not land inside the next timed window.
void QuiesceDisk(const fs::path& root) {
  const int fd = ::open(root.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

std::string FsType(const fs::path& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return buf;
    }
  }
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Registry deltas. Telemetry is read, never reset: a phase's numbers are
// the difference of two snapshots.

using Snap = std::vector<Registry::SnapshotEntry>;

const Registry::SnapshotEntry* FindEntry(const Snap& snap,
                                         const std::string& name) {
  auto it = std::lower_bound(
      snap.begin(), snap.end(), name,
      [](const Registry::SnapshotEntry& e, const std::string& n) {
        return e.name < n;
      });
  return it != snap.end() && it->name == name ? &*it : nullptr;
}

// Counter value; a labeled family sums its series, or reads `label`.
int64_t CounterOf(const Snap& snap, const std::string& name,
                  const std::string& label = "") {
  const auto* e = FindEntry(snap, name);
  if (e == nullptr) return 0;
  if (e->series.empty()) return e->counter_value;
  int64_t sum = 0;
  for (const auto& s : e->series) {
    if (label.empty() || s.label == label) sum += s.counter_value;
  }
  return sum;
}

double GaugeOf(const Snap& snap, const std::string& name) {
  const auto* e = FindEntry(snap, name);
  return e == nullptr ? 0.0 : e->gauge_value;
}

HistogramSnapshot HistogramOf(const Snap& snap, const std::string& name,
                              const std::string& label = "") {
  const auto* e = FindEntry(snap, name);
  if (e == nullptr) return {};
  if (e->series.empty()) return e->histogram;
  for (const auto& s : e->series) {
    if (s.label == label) return s.histogram;
  }
  return {};
}

HistogramSnapshot HistogramDelta(const Snap& before, const Snap& after,
                                 const std::string& name,
                                 const std::string& label = "") {
  HistogramSnapshot a = HistogramOf(after, name, label);
  const HistogramSnapshot b = HistogramOf(before, name, label);
  a.count -= b.count;
  a.sum -= b.sum;
  a.min = 0.0;
  if (b.buckets.size() == a.buckets.size()) {
    for (size_t i = 0; i < a.buckets.size(); ++i) a.buckets[i] -= b.buckets[i];
  }
  return a;
}

// ---------------------------------------------------------------------------
// Load generation. One thread submits and collects; it also records the
// spans of a traced round.

struct Sent {
  Planned plan;
  PurchaseResult result;
};

struct PhaseRun {
  PhaseCounts counts;
  std::vector<Sent> sent;
  std::vector<double> latency_us;  // Open loop only.
  std::vector<double> lag_us;      // Open loop only.
  int64_t outstanding_max = 0;
  int64_t wall_ns = 0;
  std::vector<double> submit_us;  // Traced only.
};

// CPU placement. The load generator gets a CPU of its own for the timed
// phases; everything else (service workers, the library's pool, the
// auditor) is created while the main thread is confined to the other
// CPUs and inherits that mask. Without this, a worker woken by Submit
// lands on the generator's CPU and the two time-share it, making the
// generator run milliseconds late.
struct Placement {
  std::vector<int> service_cpus;
  int generator_cpu = -1;  // -1: a single CPU, nothing pinned.
};
Placement g_placement;

void PinTo(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void InitPlacement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  g_placement.generator_cpu = cpus.back();
  cpus.pop_back();
  g_placement.service_cpus = cpus;
  PinTo(cpus);
}

// Runs the timed phases on the generator's CPU.
class GeneratorCpu {
 public:
  GeneratorCpu() {
    if (g_placement.generator_cpu >= 0) PinTo({g_placement.generator_cpu});
  }
  ~GeneratorCpu() { PinTo(g_placement.service_cpus); }
  GeneratorCpu(const GeneratorCpu&) = delete;
  GeneratorCpu& operator=(const GeneratorCpu&) = delete;
};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Closed loop: keeps `window` requests outstanding and waits on the
// oldest, so the generator sleeps instead of spinning.
PhaseRun RunClosedLoop(MarketService& service, const char* phase,
                       std::vector<Planned> plan, int window,
                       SpanRecorder* spans) {
  PhaseRun run;
  run.counts.phase = phase;
  run.sent.resize(plan.size());
  std::deque<std::pair<size_t, std::future<PurchaseResult>>> pending;
  const int64_t start = NowNs();
  size_t next = 0;
  while (next < plan.size() || !pending.empty()) {
    while (next < plan.size() && pending.size() < static_cast<size_t>(window)) {
      run.sent[next].plan = plan[next];
      const int64_t t0 = spans != nullptr ? NowNs() : 0;
      pending.emplace_back(next, service.Submit(ToRequest(plan[next])));
      if (spans != nullptr) {
        const int64_t t1 = NowNs();
        const uint32_t root = spans->Add("loadgen.request", 0, next, t0, t1);
        spans->Add("service.submit", root, next, t0, t1);
        run.submit_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
      }
      ++next;
      ++run.counts.sent;
    }
    auto& [index, future] = pending.front();
    const PurchaseResult& result = run.sent[index].result = future.get();
    perfbench::Classify(run.counts, result.status, result.ticket);
    pending.pop_front();
  }
  run.wall_ns = NowNs() - start;
  return run;
}

// Open loop: sends on the seeded schedule whatever the service does and
// polls for completions in between, timing each request from its due
// time.
PhaseRun RunOpenLoop(MarketService& service, std::vector<Planned> plan,
                     double rate, uint64_t schedule_seed,
                     SpanRecorder* spans) {
  PhaseRun run;
  run.counts.phase = "open_loop";
  run.sent.resize(plan.size());
  const std::vector<int64_t> due = perfbench::OpenLoopSchedule(
      schedule_seed, rate, static_cast<int>(plan.size()));
  struct Pending {
    size_t index;
    int64_t due_ns;
    uint32_t span;
    std::future<PurchaseResult> future;
  };
  std::vector<Pending> pending;
  pending.reserve(1024);
  run.latency_us.reserve(plan.size());
  run.lag_us.reserve(plan.size());
  const int64_t start = NowNs() + 1000000;  // First send 1 ms from now.
  size_t next = 0;
  while (next < plan.size() || !pending.empty()) {
    int64_t now = NowNs();
    if (next < plan.size() && now >= start + due[next]) {
      const int64_t due_ns = start + due[next];
      run.lag_us.push_back(static_cast<double>(now - due_ns) / 1000.0);
      run.sent[next].plan = plan[next];
      uint32_t root = 0;
      if (spans != nullptr) {
        root = spans->Begin("loadgen.request", 0, next, due_ns);
      }
      std::future<PurchaseResult> future =
          service.Submit(ToRequest(plan[next]));
      if (spans != nullptr) {
        const int64_t t1 = NowNs();
        spans->Add("service.submit", root, next, now, t1);
        run.submit_us.push_back(static_cast<double>(t1 - now) / 1000.0);
      }
      pending.push_back({next, due_ns, root, std::move(future)});
      run.outstanding_max = std::max<int64_t>(
          run.outstanding_max, static_cast<int64_t>(pending.size()));
      ++next;
      ++run.counts.sent;
      continue;
    }
    bool any = false;
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        const int64_t ready = NowNs();
        Sent& sent = run.sent[pending[i].index];
        sent.result = pending[i].future.get();
        perfbench::Classify(run.counts, sent.result.status,
                            sent.result.ticket);
        // A shed or failed request misses every latency limit.
        run.latency_us.push_back(
            sent.result.status.ok()
                ? perfbench::LatencyFromDueUs(pending[i].due_ns, ready)
                : INFINITY);
        if (spans != nullptr) spans->End(pending[i].span, ready);
        pending[i] = std::move(pending.back());
        pending.pop_back();
        any = true;
      } else {
        ++i;
      }
    }
    if (!any) CpuRelax();
  }
  run.wall_ns = NowNs() - start;
  return run;
}

// ---------------------------------------------------------------------------
// One round.

ServiceOptions MakeServiceOptions(uint64_t seed, Auditor* auditor) {
  ServiceOptions options;
  options.num_workers = kWorkers;
  options.queue_capacity = 1 << 17;
  options.seed = seed;
  options.auditor = auditor;
  return options;
}

CatalogOptions MakeCatalogOptions(const fs::path& root, bool checkpoints) {
  CatalogOptions options;
  options.root_dir = root.string();
  options.shard_defaults.enable_checkpoints = checkpoints;
  if (checkpoints) {
    options.shard_defaults.checkpoint_policy.every_records = 64;
  }
  return options;
}

// Adds every product; returns the wall time spent in AddProduct.
int64_t AddProducts(Catalog& catalog, const Workload& w, uint64_t seed) {
  const int64_t t0 = NowNs();
  for (int p = 0; p < w.shards; ++p) {
    const uint64_t product_seed = ProductSeed(seed, p);
    const Status added = catalog.AddProduct(
        ProductName(p), [product_seed]() -> StatusOr<Marketplace> {
          return MakeProduct(product_seed);
        });
    if (!added.ok()) {
      std::fprintf(stderr, "AddProduct failed: %s\n",
                   added.ToString().c_str());
      std::exit(2);
    }
  }
  return NowNs() - t0;
}

void StartOrDie(MarketService& service) {
  const Status started = service.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "service Start failed: %s\n",
                 started.ToString().c_str());
    std::exit(2);
  }
}

// What each shard's ledger must hold: the (sequence, price) of every ok
// result routed there, in any order.
struct Expected {
  std::vector<std::vector<std::pair<int64_t, double>>> sales;
};

void Expect(Expected& expected, const std::vector<Sent>& sent) {
  for (const Sent& s : sent) {
    if (s.result.status.ok()) {
      expected.sales[s.plan.product].emplace_back(s.result.sequence,
                                                  s.result.purchase.price);
    }
  }
}

// Every ok price equals the shard broker's pricing function at the
// requested inverse-NCP, bit for bit.
void CheckPrices(Catalog& catalog, const std::vector<Sent>& sent,
                 const char* phase) {
  std::vector<Broker*> brokers(catalog.num_shards(), nullptr);
  for (int p = 0; p < catalog.num_shards(); ++p) {
    brokers[p] = *catalog.shard(p)->market()->BrokerFor(kModel);
  }
  int64_t bad = 0;
  for (const Sent& s : sent) {
    if (!s.result.status.ok()) continue;
    const double want = brokers[s.plan.product]->pricing_function()
                            .PriceAtInverseNcp(s.plan.inverse_ncp);
    if (s.result.purchase.price != want ||
        s.result.purchase.inverse_ncp != s.plan.inverse_ncp ||
        s.result.product_id != ProductName(s.plan.product)) {
      ++bad;
    }
  }
  Check(bad == 0, "%s: %lld ok results mispriced or misrouted", phase,
        static_cast<long long>(bad));
}

void CheckCounts(const PhaseCounts& c) {
  Check(c.Balanced(), "%s: sent %lld != ok %lld + shed %lld + failed %lld",
        c.phase.c_str(), static_cast<long long>(c.sent),
        static_cast<long long>(c.ok), static_cast<long long>(c.shed),
        static_cast<long long>(c.failed));
  Check(c.shed == 0 && c.failed == 0, "%s: %lld shed, %lld failed",
        c.phase.c_str(), static_cast<long long>(c.shed),
        static_cast<long long>(c.failed));
}

struct ShardTotals {
  double revenue = 0.0;
  int64_t sales = 0;
  bool operator==(const ShardTotals&) const = default;
};

// Per shard: booked sales equal the ok results routed there, their
// sequences are 0..n-1, and booked revenue equals the prices summed in
// ledger-sequence order, bit-exact. Returns the per-shard fingerprints.
std::vector<uint64_t> CheckBooked(Catalog& catalog, Expected& expected,
                                  std::vector<ShardTotals>* totals) {
  std::vector<uint64_t> fingerprints;
  for (int p = 0; p < catalog.num_shards(); ++p) {
    auto& sales = expected.sales[p];
    std::sort(sales.begin(), sales.end());
    double revenue = 0.0;
    uint64_t fp = perfbench::Fnv1a(nullptr, 0);
    bool dense = true;
    for (size_t i = 0; i < sales.size(); ++i) {
      dense = dense && sales[i].first == static_cast<int64_t>(i);
      revenue += sales[i].second;
      fp = perfbench::Fnv1a(&sales[i].first, sizeof(int64_t), fp);
      fp = perfbench::Fnv1a(&sales[i].second, sizeof(double), fp);
    }
    const Shard::Stats stats = catalog.shard(p)->stats();
    Check(dense, "%s: ledger sequences are not 0..%zu",
          ProductName(p).c_str(), sales.size());
    Check(stats.sales == static_cast<int64_t>(sales.size()),
          "%s: booked %lld sales, expected %zu", ProductName(p).c_str(),
          static_cast<long long>(stats.sales), sales.size());
    Check(stats.revenue == revenue,
          "%s: booked revenue %.17g != summed prices %.17g",
          ProductName(p).c_str(), stats.revenue, revenue);
    totals->push_back({stats.revenue, stats.sales});
    fingerprints.push_back(fp);
  }
  return fingerprints;
}

struct RoundResult {
  // End-to-end.
  double setup_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double capacity_rps = 0.0;
  double cpu_us_per_purchase = 0.0;
  double restart_s = 0.0;
  double write_bytes_per_sale = 0.0;
  double disk_bytes_per_sale = 0.0;
  double timed_s = 0.0;  // Wall time of the open-loop + capacity phases.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<PhaseCounts> phases;
  std::vector<uint64_t> fingerprints;
  // Per-layer (traced rounds fill the rest in `layers`).
  std::map<std::string, double> layers;
};

// Timed calls of the traced replay.
struct Replay {
  std::vector<double> route_us, serve_us, lookup_us, quote_us, commit_us,
      report_us, flush_us, journal_bytes;
  int64_t checkpoints = 0;
};

// Replays `plan` one request at a time straight through the layers the
// service hides: Route -> Serve -> BrokerFor -> GetErrorCurve ->
// QuoteAtInverseNcp -> RecordQuotedSale -> ReportCommitOutcome.
Replay RunReplay(Catalog& catalog, const std::vector<Planned>& plan,
                 uint64_t seed, SpanRecorder& spans, Expected& expected) {
  Replay r;
  Rng rng(seed ^ 0x7e91a7ull);
  auto us = [](int64_t a, int64_t b) {
    return static_cast<double>(b - a) / 1000.0;
  };
  int64_t bad = 0;
  std::vector<int64_t> journal_size(catalog.num_shards(), -1);
  for (size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    const uint64_t request = 1000000000ull + i;
    const std::string product = ProductName(p.product);
    int64_t t0 = NowNs();
    const uint32_t root = spans.Begin("replay.request", 0, request, t0);
    Shard* shard = catalog.Route(product);
    int64_t t1 = NowNs();
    spans.Add("catalog.route", root, request, t0, t1);
    r.route_us.push_back(us(t0, t1));
    StatusOr<std::shared_ptr<Marketplace>> served = shard->Serve();
    int64_t t2 = NowNs();
    spans.Add("shard.serve", root, request, t1, t2);
    r.serve_us.push_back(us(t1, t2));
    if (!served.ok()) {
      ++bad;
      spans.End(root, t2);
      continue;
    }
    Marketplace& market = **served;
    StatusOr<Broker*> broker = market.BrokerFor(kModel);
    int64_t t3 = NowNs();
    spans.Add("marketplace.broker_for", root, request, t2, t3);
    if (!broker.ok()) {
      ++bad;
      spans.End(root, t3);
      continue;
    }
    const std::string loss = (*broker)->model().report_losses().front()->name();
    auto curve = (*broker)->GetErrorCurve(loss);
    int64_t t4 = NowNs();
    spans.Add("curve_cache.lookup", root, request, t3, t4);
    r.lookup_us.push_back(us(t3, t4));
    if (!curve.ok()) {
      ++bad;
      spans.End(root, t4);
      continue;
    }
    Rng quote_rng = rng.Fork(i);
    auto purchase = (*broker)->QuoteAtInverseNcp(p.inverse_ncp, **curve,
                                                 quote_rng);
    int64_t t5 = NowNs();
    spans.Add("broker.quote", root, request, t4, t5);
    r.quote_us.push_back(us(t4, t5));
    if (!purchase.ok()) {
      ++bad;
      spans.End(root, t5);
      continue;
    }
    const int64_t ckpt_before =
        market.checkpoints_enabled() ? market.CheckpointStats()->checkpoints
                                     : 0;
    StatusOr<int64_t> sequence =
        market.RecordQuotedSale(p.buyer, kModel, *purchase);
    int64_t t6 = NowNs();
    spans.Add("marketplace.record_quoted_sale", root, request, t5, t6);
    const int64_t ckpt_after =
        market.checkpoints_enabled() ? market.CheckpointStats()->checkpoints
                                     : 0;
    shard->ReportCommitOutcome(sequence.status());
    int64_t t7 = NowNs();
    spans.Add("shard.report", root, request, t6, t7);
    r.report_us.push_back(us(t6, t7));
    spans.End(root, t7);
    if (ckpt_after > ckpt_before) {
      r.checkpoints += ckpt_after - ckpt_before;
    } else {
      r.commit_us.push_back(us(t5, t6));
    }
    if (!sequence.ok() ||
        purchase->price != (*broker)->pricing_function().PriceAtInverseNcp(
                               p.inverse_ncp)) {
      ++bad;
      continue;
    }
    expected.sales[p.product].emplace_back(*sequence, purchase->price);
    // Journal growth per sale, outside the timed calls: flush, then
    // measure the live segment. A checkpoint rotates the segment, so
    // only commits that took none count.
    const int64_t f0 = NowNs();
    const Status flushed = market.FlushJournal();
    r.flush_us.push_back(us(f0, NowNs()));
    Check(flushed.ok(), "replay: FlushJournal failed");
    const int64_t size =
        static_cast<int64_t>(fs::file_size(shard->journal_path()));
    if (journal_size[p.product] >= 0 && ckpt_after == ckpt_before) {
      r.journal_bytes.push_back(
          static_cast<double>(size - journal_size[p.product]));
    }
    journal_size[p.product] = size;
  }
  Check(bad == 0, "replay: %lld requests failed or mispriced",
        static_cast<long long>(bad));
  return r;
}

double P(std::vector<double> v, double q) {
  return perfbench::PercentileOf(std::move(v), q).value;
}

RoundResult RunRound(const Workload& w, uint64_t seed, const fs::path& root,
                     bool traced, SpanRecorder* spans) {
  RoundResult out;
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root);
  RequestStream stream(seed, w.shards);
  Expected expected;
  expected.sales.resize(w.shards);
  const Snap setup_before = Registry::Global().Snapshot();

  // --- Set-up: from an empty data root to the first timed phase.
  const int64_t setup_start = NowNs();
  int64_t add_ns = 0;
  int64_t preload_ns = 0;
  if (w.preload > 0) {
    // History is grown with checkpoints off and the catalog reopened
    // with the workload's options, so set-up does not pay O(history^2)
    // in cadence snapshots.
    const int64_t t0 = NowNs();
    Catalog catalog(MakeCatalogOptions(root, false));
    add_ns += AddProducts(catalog, w, seed);
    MarketService service(&catalog, MakeServiceOptions(seed, nullptr));
    StartOrDie(service);
    PhaseRun preload =
        RunClosedLoop(service, "preload", stream.Next(w.preload), 256, nullptr);
    CheckCounts(preload.counts);
    Expect(expected, preload.sent);
    Check(service.Drain().ok(), "preload drain failed");
    preload_ns = NowNs() - t0;
  }
  auto catalog = std::make_unique<Catalog>(MakeCatalogOptions(root, w.checkpoints));
  add_ns += AddProducts(*catalog, w, seed);
  std::unique_ptr<Auditor> auditor;
  if (w.auditor) {
    auditor = std::make_unique<Auditor>(AuditorOptions{});
  }
  auto service = std::make_unique<MarketService>(
      catalog.get(), MakeServiceOptions(seed, auditor.get()));
  if (auditor) auditor->Start();
  StartOrDie(*service);
  PhaseRun warm = RunClosedLoop(*service, "warmup", stream.Next(w.warmup),
                                w.window, nullptr);
  CheckCounts(warm.counts);
  Expect(expected, warm.sent);
  out.setup_s = Seconds(NowNs() - setup_start);
  const Snap setup_after = Registry::Global().Snapshot();

  // --- Timed phases.
  QuiesceDisk(root);
  std::optional<GeneratorCpu> pinned;
  pinned.emplace();
  const nimbus::service::MarketService::Stats svc_before = service->stats();
  const ProcSample proc0 = SampleProc();
  const Snap& phase_before = setup_after;
  PhaseRun open = RunOpenLoop(*service, stream.Next(w.open_loop), w.rate,
                              seed ^ 0x0be7100full, traced ? spans : nullptr);
  const std::vector<nimbus::telemetry::FlightRecord> flights =
      traced ? nimbus::telemetry::FlightRecorder::Global().Snapshot()
             : std::vector<nimbus::telemetry::FlightRecord>{};
  const ProcSample proc1 = SampleProc();
  PhaseRun cap = RunClosedLoop(*service, "capacity", stream.Next(w.capacity),
                               w.window, traced ? spans : nullptr);
  const ProcSample proc2 = SampleProc();
  pinned.reset();
  const Snap phase_after = Registry::Global().Snapshot();
  const nimbus::service::MarketService::Stats svc_after = service->stats();

  for (const PhaseRun* run : {&open, &cap}) {
    CheckCounts(run->counts);
    CheckPrices(*catalog, run->sent, run->counts.phase.c_str());
    Expect(expected, run->sent);
    out.phases.push_back(run->counts);
    out.attempted += run->counts.sent;
    out.failed += run->counts.shed + run->counts.failed;
  }
  const perfbench::Percentile p50 = perfbench::PercentileOf(open.latency_us, 0.50);
  const perfbench::Percentile p99 = perfbench::PercentileOf(open.latency_us, 0.99);
  Check(p99.supported, "open loop: only %lld samples above p99",
        static_cast<long long>(p99.above));
  out.p50_us = p50.value;
  out.p99_us = p99.value;
  const int64_t timed_sales = open.counts.ok + cap.counts.ok;
  out.timed_s = Seconds(open.wall_ns + cap.wall_ns);
  out.capacity_rps =
      static_cast<double>(cap.counts.ok) / Seconds(cap.wall_ns);
  out.cpu_us_per_purchase = static_cast<double>(proc2.cpu_us - proc1.cpu_us) /
                            static_cast<double>(cap.counts.ok);
  out.write_bytes_per_sale = static_cast<double>(proc2.wchar - proc0.wchar) /
                             static_cast<double>(timed_sales);

  if (auditor) {
    auditor->Stop();
    const Auditor::Status audit = auditor->GetStatus();
    const int64_t ok_total = svc_after.succeeded;
    Check(audit.violations == 0, "auditor: %lld violations",
          static_cast<long long>(audit.violations));
    Check(audit.commits_observed == ok_total,
          "auditor: observed %lld commits, service booked %lld",
          static_cast<long long>(audit.commits_observed),
          static_cast<long long>(ok_total));
    out.layers["auditor.commits_observed"] =
        static_cast<double>(audit.commits_observed);
    out.layers["auditor.samples_dropped"] =
        static_cast<double>(audit.samples_dropped);
    out.layers["auditor.passes"] = static_cast<double>(audit.passes);
  }

  // --- Traced round: per-layer numbers (read before the replay so the
  // replay never shows in them).
  if (traced) {
    auto& L = out.layers;
    L["service.submit_us.p50"] = P(open.submit_us, 0.5);
    std::set<uint64_t> ids;
    for (const Sent& s : open.sent) ids.insert(s.result.trace_id);
    std::vector<double> q, e, c;
    for (const auto& f : flights) {
      if (ids.count(f.trace_id) != 0 && f.ticket >= 0) {
        q.push_back(f.queue_us);
        e.push_back(f.execute_us);
        c.push_back(f.commit_us);
      }
    }
    L["service.queue_us.p50"] = P(q, 0.5);
    L["service.execute_us.p50"] = P(e, 0.5);
    L["service.commit_us.p50"] = P(c, 0.5);
    L["service.commit_us.p99"] = P(c, 0.99);
    const double quotes = static_cast<double>(
        CounterOf(phase_after, "broker_quotes_total") -
        CounterOf(phase_before, "broker_quotes_total"));
    const HistogramSnapshot batches =
        HistogramDelta(phase_before, phase_after, "quote_batch_latency_us");
    L["service.quotes_per_batch"] =
        batches.count > 0 ? quotes / static_cast<double>(batches.count) : 0.0;
    const double sales = static_cast<double>(timed_sales);
    const HistogramSnapshot seq_wait = HistogramDelta(
        phase_before, phase_after, "mutex_wait_us", "commit_sequencer");
    L["mutex.commit_sequencer.wait_us_per_purchase"] = seq_wait.sum / sales;
    const double seq_acq = static_cast<double>(
        CounterOf(phase_after, "mutex_acquisitions_total", "commit_sequencer") -
        CounterOf(phase_before, "mutex_acquisitions_total", "commit_sequencer"));
    const double seq_con = static_cast<double>(
        CounterOf(phase_after, "mutex_contention_total", "commit_sequencer") -
        CounterOf(phase_before, "mutex_contention_total", "commit_sequencer"));
    L["mutex.commit_sequencer.contended_share"] =
        seq_acq > 0 ? seq_con / seq_acq : 0.0;
    L["mutex.admission_queue.wait_us_per_purchase"] =
        HistogramDelta(phase_before, phase_after, "mutex_wait_us",
                       "admission_queue")
            .sum /
        sales;
    L["process.ctx_switches_per_purchase"] =
        static_cast<double>(proc2.ctx_switches - proc1.ctx_switches) /
        static_cast<double>(cap.counts.ok);
    L["service.retries"] =
        static_cast<double>(svc_after.retries - svc_before.retries);
    L["service.shed"] = static_cast<double>(svc_after.shed - svc_before.shed);
    L["service.failed"] =
        static_cast<double>(svc_after.failed - svc_before.failed);
    const HistogramSnapshot ckpt =
        HistogramDelta(phase_before, phase_after, "checkpoint_latency_us");
    L["checkpoint.count"] = static_cast<double>(ckpt.count);
    L["checkpoint.us.p50"] = ckpt.count > 0 ? ckpt.Quantile(0.5) : 0.0;
    L["checkpoint.us.p99"] = ckpt.count > 0 ? ckpt.Quantile(0.99) : 0.0;
    L["checkpoint.us_per_purchase"] = ckpt.sum / sales;
    L["snapshot.bytes.last"] = GaugeOf(phase_after, "snapshot_last_bytes");
    L["journal.rotations"] = static_cast<double>(
        CounterOf(phase_after, "journal_rotations_total") -
        CounterOf(phase_before, "journal_rotations_total"));
    L["listing.add_product_s"] = Seconds(add_ns);
    L["listing.curve_build_s"] =
        HistogramDelta(setup_before, setup_after,
                       "curve_cache_build_latency_us")
            .sum *
        1e-6;
    L["setup.preload_s"] = Seconds(preload_ns);
    L["loadgen.lag_us.p99"] = P(open.lag_us, 0.99);
    L["loadgen.lag_us.max"] =
        *std::max_element(open.lag_us.begin(), open.lag_us.end());
    L["loadgen.outstanding_max"] = static_cast<double>(open.outstanding_max);
    for (const char* name : {"auditor.commits_observed",
                             "auditor.samples_dropped", "auditor.passes"}) {
      L.emplace(name, 0.0);  // No auditor attached.
    }

    const Snap replay_before = Registry::Global().Snapshot();
    const Replay replay = RunReplay(*catalog, stream.Next(kReplayRequests),
                                    seed, *spans, expected);
    const Snap replay_after = Registry::Global().Snapshot();
    const int64_t replay_checkpoints =
        HistogramDelta(replay_before, replay_after, "checkpoint_latency_us")
            .count;
    Check(replay_checkpoints == replay.checkpoints,
          "replay: checkpoint_latency_us counted %lld checkpoints, "
          "CheckpointStats advanced %lld",
          static_cast<long long>(replay_checkpoints),
          static_cast<long long>(replay.checkpoints));
    L["catalog.route_us.p50"] = P(replay.route_us, 0.5);
    L["shard.serve_us.p50"] = P(replay.serve_us, 0.5);
    L["shard.report_us.p50"] = P(replay.report_us, 0.5);
    L["curve_cache.lookup_us.p50"] = P(replay.lookup_us, 0.5);
    L["broker.quote_us.p50"] = P(replay.quote_us, 0.5);
    L["ledger.commit_us.p50"] = P(replay.commit_us, 0.5);
    L["journal.flush_us"] = P(replay.flush_us, 0.5);
    L["journal.bytes_per_sale"] = P(replay.journal_bytes, 0.5);
  }

  // --- Drain, then bytes on disk.
  Check(service->Drain().ok(), "drain failed");
  service.reset();
  auditor.reset();
  std::vector<ShardTotals> booked;
  out.fingerprints = CheckBooked(*catalog, expected, &booked);
  int64_t total_sales = 0;
  for (const ShardTotals& t : booked) total_sales += t.sales;
  catalog.reset();
  out.disk_bytes_per_sale = static_cast<double>(BytesUnder(root)) /
                            static_cast<double>(total_sales);

  // --- Restart: a fresh catalog over the same root, then Start; the
  // clock stops when every shard serves. Repeated w.restarts times (each
  // restart restores what the previous one left) for the median.
  const Snap restart_before = Registry::Global().Snapshot();
  std::vector<double> restarts, reopens, starts;
  Marketplace::RestoreReport first_total;
  for (int k = 0; k < w.restarts; ++k) {
    QuiesceDisk(root);
    const int64_t r0 = NowNs();
    catalog =
        std::make_unique<Catalog>(MakeCatalogOptions(root, w.checkpoints));
    AddProducts(*catalog, w, seed);
    const int64_t r1 = NowNs();
    service = std::make_unique<MarketService>(
        catalog.get(), MakeServiceOptions(seed, nullptr));
    StartOrDie(*service);
    for (int p = 0; p < catalog->num_shards(); ++p) {
      while (catalog->shard(p)->state() != ShardState::kServing) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    const int64_t r2 = NowNs();
    restarts.push_back(Seconds(r2 - r0));
    reopens.push_back(Seconds(r1 - r0));
    starts.push_back(Seconds(r2 - r1));
    for (int p = 0; p < catalog->num_shards(); ++p) {
      Shard* shard = catalog->shard(p);
      const Shard::Stats stats = shard->stats();
      Check(ShardTotals{stats.revenue, stats.sales} == booked[p],
            "%s: restart restored %lld sales / %.17g, drained %lld / %.17g",
            ProductName(p).c_str(), static_cast<long long>(stats.sales),
            stats.revenue, static_cast<long long>(booked[p].sales),
            booked[p].revenue);
      const Marketplace::RestoreReport report = shard->last_restore_report();
      const auto want = w.checkpoints
                            ? Marketplace::RestoreReport::Source::kSnapshot
                            : Marketplace::RestoreReport::Source::kFullReplay;
      Check(report.source == want, "%s: restored from source %d",
            ProductName(p).c_str(), static_cast<int>(report.source));
      Check(report.snapshots_rejected == 0, "%s: %d snapshots rejected",
            ProductName(p).c_str(), report.snapshots_rejected);
      if (k == 0) {
        first_total.snapshot_records += report.snapshot_records;
        first_total.tail_records += report.tail_records;
      }
    }
    service.reset();
    catalog.reset();
  }
  const Snap restart_after = Registry::Global().Snapshot();
  out.restart_s = perfbench::Median(restarts);
  if (traced) {
    auto& L = out.layers;
    L["restore.snapshot_records"] =
        static_cast<double>(first_total.snapshot_records);
    L["restore.tail_records"] = static_cast<double>(first_total.tail_records);
    L["restore.us.sum"] =
        HistogramDelta(restart_before, restart_after, "recovery_latency_us")
            .sum /
        w.restarts;
    L["restart.reopen_s"] = perfbench::Median(reopens);
    L["restart.start_s"] = perfbench::Median(starts);
    L["curve_cache.hits"] = static_cast<double>(
        CounterOf(restart_after, "curve_cache_hits_total") -
        CounterOf(setup_before, "curve_cache_hits_total"));
    L["curve_cache.misses"] = static_cast<double>(
        CounterOf(restart_after, "curve_cache_misses_total") -
        CounterOf(setup_before, "curve_cache_misses_total"));
    L["curve_cache.builds"] = static_cast<double>(
        CounterOf(restart_after, "curve_cache_builds_total") -
        CounterOf(setup_before, "curve_cache_builds_total"));
  }
  fs::remove_all(root, ec);
  return out;
}

// Per-layer self time from the traced round's spans, per request.
void AddSelfTimes(const SpanRecorder& spans, int64_t service_requests,
                  int64_t open_loop_requests, int64_t replayed,
                  std::map<std::string, double>& L) {
  const std::map<std::string, int64_t> self =
      perfbench::SelfTimes(spans.spans());
  auto per = [&](std::initializer_list<const char*> names, int64_t n) {
    int64_t ns = 0;
    for (const char* name : names) {
      auto it = self.find(name);
      if (it != self.end()) ns += it->second;
    }
    return n > 0 ? static_cast<double>(ns) / 1000.0 / static_cast<double>(n)
                 : 0.0;
  };
  L["self.service.submit_us_per_request"] =
      per({"service.submit"}, service_requests);
  L["self.service.wait_us_per_request"] =
      per({"loadgen.request"}, open_loop_requests);
  L["self.catalog_us_per_request"] = per({"catalog.route"}, replayed);
  L["self.shard_us_per_request"] =
      per({"shard.serve", "shard.report"}, replayed);
  L["self.marketplace_us_per_request"] =
      per({"marketplace.broker_for"}, replayed);
  L["self.curve_cache_us_per_request"] = per({"curve_cache.lookup"}, replayed);
  L["self.broker_us_per_request"] = per({"broker.quote"}, replayed);
  L["self.commit_us_per_request"] =
      per({"marketplace.record_quoted_sale"}, replayed);
  L["trace.spans"] = static_cast<double>(spans.spans().size());
}

std::string Arg(int argc, char** argv, const char* name,
                const std::string& fallback) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return fallback;
}

std::string JsonString(const std::string& s) {
  std::string out(1, '"');
  out += nimbus::telemetry::JsonEscape(s);
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
  return buf;
}

}  // namespace

// Runs one round and prints it as the last stdout line, a JSON object
// {"round": {...}}; perfbench/run.py runs one process per round and
// aggregates. Exits 1 when a check failed.
int main(int argc, char** argv) {
  const std::string workload_name = Arg(argc, argv, "workload", "");
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload_name == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <single_product|many_products|"
                 "journal_only> --seed N --trace 0|1 [--root DIR] "
                 "[--spans FILE]\n");
    return 2;
  }
  const uint64_t seed =
      std::strtoull(Arg(argc, argv, "seed", "1").c_str(), nullptr, 10);
  const bool traced = Arg(argc, argv, "trace", "0") == "1";
  const fs::path root = fs::absolute(
      Arg(argc, argv, "root",
          ".bench_build/perfbench-data/" + workload_name + "-" +
              std::to_string(static_cast<long>(::getpid()))));
  const std::string span_path =
      Arg(argc, argv, "spans",
          ".bench_build/perfbench-spans-" + workload_name + ".json");
  ::setenv("NIMBUS_THREADS", kNimbusThreads, 1);
  InitPlacement();
  fs::create_directories(root);
  const std::string fs_type = FsType(root);

  SpanRecorder spans;
  if (traced) spans.Reserve(4 * kReplayRequests + 64 * 1024);
  RoundResult r = RunRound(*w, seed, root, traced, traced ? &spans : nullptr);
  std::error_code ec;
  fs::remove_all(root, ec);
  std::printf(
      "%s: setup %.3f s  p50 %.1f us  p99 %.1f us  capacity %.0f rps  cpu "
      "%.1f us/sale  restart %.3f s  wchar %.1f B/sale  disk %.1f B/sale\n",
      traced ? "traced round" : "round", r.setup_s, r.p50_us, r.p99_us,
      r.capacity_rps, r.cpu_us_per_purchase, r.restart_s,
      r.write_bytes_per_sale, r.disk_bytes_per_sale);
  if (traced) {
    AddSelfTimes(spans, r.attempted, r.phases.front().sent, kReplayRequests,
                 r.layers);
    std::FILE* f = std::fopen(span_path.c_str(), "w");
    const std::string json = spans.ToChromeJson();
    const bool written =
        f != nullptr &&
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (f != nullptr) std::fclose(f);
    Check(written, "cannot write span file %s", span_path.c_str());
  }

  std::string out = "{\"round\":{";
  auto field = [&](const char* name, const std::string& value) {
    if (out.back() != '{') out += ",";
    out += JsonString(name) + ":" + value;
  };
  field("setup_s", JsonNumber(r.setup_s));
  field("purchase_p50_us", JsonNumber(r.p50_us));
  field("purchase_p99_us", JsonNumber(r.p99_us));
  field("capacity_rps", JsonNumber(r.capacity_rps));
  field("cpu_us_per_purchase", JsonNumber(r.cpu_us_per_purchase));
  field("restart_s", JsonNumber(r.restart_s));
  field("write_bytes_per_sale", JsonNumber(r.write_bytes_per_sale));
  field("disk_bytes_per_sale", JsonNumber(r.disk_bytes_per_sale));
  field("peak_rss_mb", JsonNumber(PeakRssMb()));
  field("timed_s", JsonNumber(r.timed_s));
  field("attempted", std::to_string(r.attempted));
  field("failed", std::to_string(r.failed));
  std::string list;
  for (const PhaseCounts& c : r.phases) {
    list += (list.empty() ? "" : ",") + std::string("{\"phase\":") +
            JsonString(c.phase) + ",\"sent\":" + std::to_string(c.sent) +
            ",\"ok\":" + std::to_string(c.ok) +
            ",\"shed\":" + std::to_string(c.shed) +
            ",\"failed\":" + std::to_string(c.failed) + "}";
  }
  field("phases", "[" + list + "]");
  list.clear();
  for (uint64_t fp : r.fingerprints) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fp));
    list += (list.empty() ? "" : ",") + JsonString(buf);
  }
  field("shard_fingerprints", "[" + list + "]");
  list.clear();
  for (const std::string& failure : g_failures) {
    list += (list.empty() ? "" : ",") + JsonString(failure);
  }
  field("failures", "[" + list + "]");
  list.clear();
  for (const auto& [name, value] : r.layers) {
    list += (list.empty() ? "" : ",") + JsonString(name) + ":" +
            JsonNumber(value);
  }
  field("layers", "{" + list + "}");
  char config[1024];
  std::snprintf(
      config, sizeof(config),
      "{\"nproc\":%ld,\"cpu_model\":%s,\"compiler\":%s,\"build_type\":%s,"
      "\"data_root_fs\":%s,\"journal_fsync\":\"kNone\","
      "\"nimbus_threads\":%s,\"service_workers\":%d,\"load_threads\":1,"
      "\"generator_cpu\":%d,\"service_cpus\":%zu,\"offered_rate_rps\":%g,"
      "\"open_loop_requests\":%d,\"capacity_requests\":%d,"
      "\"capacity_window\":%d,\"preload_sales\":%d,\"warmup_requests\":%d,"
      "\"shards\":%d,\"checkpoint_every_records\":%d,\"auditor\":%s}",
      ::sysconf(_SC_NPROCESSORS_ONLN), JsonString(CpuModel()).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(fs_type).c_str(),
      JsonString(kNimbusThreads).c_str(), kWorkers,
      g_placement.generator_cpu, g_placement.service_cpus.size(), w->rate,
      w->open_loop, w->capacity, w->window, w->preload, w->warmup, w->shards,
      w->checkpoints ? 64 : 0, w->auditor ? "true" : "false");
  field("config", config);
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return g_failures.empty() ? 0 : 1;
}
