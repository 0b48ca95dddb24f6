#include "market/research_estimation.h"

#include <algorithm>
#include <cmath>

#include "solver/isotonic.h"

namespace nimbus::market {

StatusOr<std::vector<revenue::BuyerPoint>> EstimateResearchFromLedger(
    const std::vector<LedgerEntry>& sales, ml::ModelKind model,
    const std::vector<double>& versions) {
  if (versions.empty()) {
    return InvalidArgumentError("need at least one version grid point");
  }
  double prev = 0.0;
  for (double v : versions) {
    if (!(v > prev)) {
      return InvalidArgumentError(
          "versions must be strictly increasing and positive");
    }
    prev = v;
  }
  const size_t n = versions.size();
  std::vector<double> counts(n, 0.0);
  std::vector<double> max_paid(n, 0.0);
  int transactions = 0;
  for (const LedgerEntry& entry : sales) {
    if (entry.model != model) {
      continue;
    }
    ++transactions;
    // Assign to the nearest grid version.
    size_t best = 0;
    double best_distance = std::fabs(entry.inverse_ncp - versions[0]);
    for (size_t j = 1; j < n; ++j) {
      const double distance = std::fabs(entry.inverse_ncp - versions[j]);
      if (distance < best_distance) {
        best_distance = distance;
        best = j;
      }
    }
    counts[best] += 1.0;
    max_paid[best] = std::max(max_paid[best], entry.price);
  }
  if (transactions == 0) {
    return FailedPreconditionError(
        "no transactions recorded for model '" +
        std::string(ml::ModelKindToString(model)) + "'");
  }

  // Forward-fill valuation estimates for unsold versions, then smooth to
  // a monotone non-decreasing curve (the DP precondition).
  std::vector<double> values = max_paid;
  double running = 0.0;
  for (size_t j = 0; j < n; ++j) {
    if (counts[j] == 0.0) {
      values[j] = running;
    } else {
      running = values[j];
    }
  }
  NIMBUS_ASSIGN_OR_RETURN(values, solver::IsotonicIncreasing(values));

  // Plus-one smoothing on the demand masses, normalized to total 1.
  std::vector<revenue::BuyerPoint> research(n);
  double total_mass = 0.0;
  for (size_t j = 0; j < n; ++j) {
    research[j].a = versions[j];
    research[j].b = counts[j] + 1.0;
    research[j].v = std::max(0.0, values[j]);
    total_mass += research[j].b;
  }
  for (revenue::BuyerPoint& p : research) {
    p.b /= total_mass;
  }
  NIMBUS_RETURN_IF_ERROR(revenue::ValidateBuyerPoints(
      research, /*require_monotone_valuations=*/true));
  return research;
}

}  // namespace nimbus::market
