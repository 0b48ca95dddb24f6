#include "common/fault.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/statusor.h"
#include "common/telemetry.h"

namespace nimbus::fault {
namespace {

// Every FAULT_POINT / ShouldFail name in the tree must be listed here;
// scripts/check_fault_points.sh fails the build on a call site missing
// from the catalog or a duplicate entry. Keep the list sorted.
// FAULT-POINT-CATALOG-BEGIN
constexpr const char* kFaultPointCatalog[] = {
    "audit.verify",
    "broker.quote",
    "io.read",
    "io.write",
    "journal.append",
    "journal.fsync",
    "journal.replay",
    "journal.rotate",
    "service.enqueue",
    "service.execute",
    "snapshot.fsync",
    "snapshot.rename",
    "snapshot.write",
    "solver.cholesky",
};
// FAULT-POINT-CATALOG-END

telemetry::Counter& InjectedCounter() {
  static telemetry::Counter& counter =
      telemetry::Registry::Global().GetCounter("fault_injected_total");
  return counter;
}

// One armed clause plus its runtime state. Deterministic clauses fire on
// hits [nth, nth+count) (count < 0 = forever); probabilistic clauses
// (nth == 0) draw from a per-rule seeded stream.
struct Rule {
  int64_t nth = 0;
  int64_t count = 1;
  double probability = 0.0;
  Mode mode = Mode::kStatus;
  std::unique_ptr<Rng> rng;
  int64_t hits = 0;
  int64_t fires = 0;
};

std::atomic<bool> g_armed{false};

// Thread-local fault scope set by ScopedFaultScope ("" = unscoped).
thread_local std::string t_scope;

std::mutex& Mutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

// Armed rules plus hit counters for known points seen while armed.
// Leaked (like the telemetry registry) so exit-time paths never race
// static destruction.
std::map<std::string, Rule>& Rules() {
  static std::map<std::string, Rule>* rules = new std::map<std::string, Rule>();
  return *rules;
}

StatusOr<Rule> ParseClauseBody(const std::string& point,
                               std::vector<std::string> tokens) {
  Rule rule;
  // A trailing mode token applies to either clause form:
  // `point:3:enospc`, `point:3:2:enospc`, `point:p=0.5:enospc`.
  if (!tokens.empty() && tokens.back() == "enospc") {
    rule.mode = Mode::kEnospc;
    tokens.pop_back();
  }
  if (tokens.empty()) {
    return InvalidArgumentError("fault clause '" + point +
                                "' needs ':nth' or ':p=<prob>'");
  }
  if (tokens[0].rfind("p=", 0) == 0) {
    char* end = nullptr;
    rule.probability = std::strtod(tokens[0].c_str() + 2, &end);
    if (end == tokens[0].c_str() + 2 || *end != '\0' ||
        !(rule.probability > 0.0) || rule.probability > 1.0) {
      return InvalidArgumentError("bad probability in fault clause '" + point +
                                  "'");
    }
    uint64_t seed = 0;
    if (tokens.size() > 1) {
      if (tokens.size() > 2 || tokens[1].rfind("seed=", 0) != 0) {
        return InvalidArgumentError("bad probabilistic fault clause '" + point +
                                    "'");
      }
      seed = std::strtoull(tokens[1].c_str() + 5, &end, 10);
      if (end == tokens[1].c_str() + 5 || *end != '\0') {
        return InvalidArgumentError("bad seed in fault clause '" + point + "'");
      }
    }
    rule.rng = std::make_unique<Rng>(seed ^ Fnv1a64(point, kSeedMixBasis));
    return rule;
  }
  char* end = nullptr;
  rule.nth = static_cast<int64_t>(std::strtoll(tokens[0].c_str(), &end, 10));
  if (end == tokens[0].c_str() || *end != '\0' || rule.nth < 1) {
    return InvalidArgumentError("bad hit index in fault clause '" + point +
                                "' (want a 1-based integer)");
  }
  if (tokens.size() > 2) {
    return InvalidArgumentError("too many fields in fault clause '" + point +
                                "'");
  }
  if (tokens.size() == 2) {
    if (tokens[1] == "*") {
      rule.count = -1;
    } else {
      rule.count =
          static_cast<int64_t>(std::strtoll(tokens[1].c_str(), &end, 10));
      if (end == tokens[1].c_str() || *end != '\0' || rule.count < 1) {
        return InvalidArgumentError("bad count in fault clause '" + point +
                                    "' (want a positive integer or '*')");
      }
    }
  }
  return rule;
}

StatusOr<std::map<std::string, Rule>> ParseSpec(const std::string& spec) {
  std::map<std::string, Rule> rules;
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string clause = spec.substr(start, end - start);
    start = end + 1;
    if (clause.empty()) {
      continue;
    }
    std::vector<std::string> tokens;
    size_t pos = 0;
    while (pos <= clause.size()) {
      size_t colon = clause.find(':', pos);
      if (colon == std::string::npos) {
        colon = clause.size();
      }
      tokens.push_back(clause.substr(pos, colon - pos));
      if (colon == clause.size()) {
        break;
      }
      pos = colon + 1;
    }
    // The rule key is the full `point` or `point@scope` token; only the
    // base point name must exist in the catalog.
    const std::string key = tokens.front();
    tokens.erase(tokens.begin());
    const size_t at = key.find('@');
    const std::string point = key.substr(0, at);
    if (!IsKnownPoint(point)) {
      return InvalidArgumentError("unknown fault point '" + point +
                                  "' (see the catalog in common/fault.cc)");
    }
    if (at != std::string::npos && at + 1 >= key.size()) {
      return InvalidArgumentError("empty scope in fault clause '" + key + "'");
    }
    if (rules.count(key) > 0) {
      return InvalidArgumentError("fault point '" + key +
                                  "' armed twice in one spec");
    }
    NIMBUS_ASSIGN_OR_RETURN(Rule rule, ParseClauseBody(key, std::move(tokens)));
    rules.emplace(key, std::move(rule));
  }
  return rules;
}

// First-use hook honoring NIMBUS_FAULTS, mirroring telemetry's
// EnsureInitialized so any binary gets env-driven injection without
// explicit setup.
void EnsureInitialized() {
  static const bool initialized = [] {
    ArmFromEnvOrDie();
    return true;
  }();
  (void)initialized;
}

// Evaluates one armed rule against its next hit; logs and counts fires.
bool EvaluateRuleLocked(const std::string& key, Rule& rule) {
  const int64_t hit = ++rule.hits;
  bool fire = false;
  if (rule.rng != nullptr) {
    fire = rule.rng->Bernoulli(rule.probability);
  } else {
    fire = hit >= rule.nth &&
           (rule.count < 0 || hit < rule.nth + rule.count);
  }
  if (fire) {
    ++rule.fires;
    InjectedCounter().Increment();
    NIMBUS_LOG(kWarning) << "fault injected at '" << key << "' (hit #"
                         << hit << ")";
  }
  return fire;
}

}  // namespace

Injection Check(const char* point) {
  EnsureInitialized();
  Injection result;
  if (!g_armed.load(std::memory_order_relaxed)) {
    return result;
  }
  std::lock_guard<std::mutex> lock(Mutex());
  // An unscoped clause applies on every thread; a `point@scope` clause
  // only on threads inside a matching ScopedFaultScope. Both count
  // their hits independently (the scoped rule only counts scoped hits,
  // so `journal.append@shard-7:3` means shard-7's third append).
  auto it = Rules().find(point);
  if (it != Rules().end()) {
    if (EvaluateRuleLocked(it->first, it->second)) {
      result.fire = true;
      result.mode = it->second.mode;
    }
  } else {
    // Count hits at unarmed-but-known points too, so a drill can see
    // which recovery paths were exercised without arming them.
    ++Rules()[point].hits;
  }
  if (!t_scope.empty()) {
    const std::string scoped_key = std::string(point) + "@" + t_scope;
    auto scoped = Rules().find(scoped_key);
    if (scoped != Rules().end() &&
        EvaluateRuleLocked(scoped->first, scoped->second)) {
      result.fire = true;
      result.mode = scoped->second.mode;
    }
  }
  return result;
}

bool ShouldFail(const char* point) { return Check(point).fire; }

ScopedFaultScope::ScopedFaultScope(const std::string& scope)
    : previous_(t_scope) {
  t_scope = scope;
}

ScopedFaultScope::~ScopedFaultScope() { t_scope = previous_; }

const std::string& CurrentFaultScope() { return t_scope; }

void ArmFromEnvOrDie() {
  const char* spec = std::getenv("NIMBUS_FAULTS");
  if (spec == nullptr || *spec == '\0') {
    return;
  }
  const Status status = Configure(spec);
  if (!status.ok()) {
    // Fail fast: an operator who armed a drill with a typo'd point name
    // would otherwise run a chaos exercise that silently tests nothing.
    NIMBUS_LOG(kFatal) << "invalid NIMBUS_FAULTS spec '" << spec
                       << "': " << status.ToString();
  }
}

Status Configure(const std::string& spec) {
  StatusOr<std::map<std::string, Rule>> rules = ParseSpec(spec);
  if (!rules.ok()) {
    return rules.status();
  }
  std::lock_guard<std::mutex> lock(Mutex());
  Rules() = *std::move(rules);
  g_armed.store(!Rules().empty(), std::memory_order_relaxed);
  return OkStatus();
}

void Reset() {
  std::lock_guard<std::mutex> lock(Mutex());
  Rules().clear();
  g_armed.store(false, std::memory_order_relaxed);
}

int64_t HitCount(const std::string& point) {
  std::lock_guard<std::mutex> lock(Mutex());
  auto it = Rules().find(point);
  return it == Rules().end() ? 0 : it->second.hits;
}

int64_t FireCount(const std::string& point) {
  std::lock_guard<std::mutex> lock(Mutex());
  auto it = Rules().find(point);
  return it == Rules().end() ? 0 : it->second.fires;
}

bool IsKnownPoint(const std::string& name) {
  const std::vector<std::string>& points = KnownPoints();
  return std::binary_search(points.begin(), points.end(), name);
}

const std::vector<std::string>& KnownPoints() {
  static const std::vector<std::string>* points = [] {
    auto* out = new std::vector<std::string>(std::begin(kFaultPointCatalog),
                                             std::end(kFaultPointCatalog));
    std::sort(out->begin(), out->end());
    return out;
  }();
  return *points;
}

}  // namespace nimbus::fault
