#include "market/ledger.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/telemetry.h"
#include "market/journal.h"

namespace nimbus::market {
namespace {

// Audit counters mirrored into the telemetry registry on every Record,
// so benches and the metrics snapshot report revenue without re-walking
// the ledger — labeled per offering (the entry's model kind), matching
// the broker's per-offering families.
telemetry::CounterVec& LedgerSalesVec() {
  static telemetry::CounterVec& vec =
      telemetry::Registry::Global().GetCounterVec("ledger_sales_total",
                                                  "offering");
  return vec;
}

telemetry::GaugeVec& LedgerRevenueVec() {
  static telemetry::GaugeVec& vec =
      telemetry::Registry::Global().GetGaugeVec("ledger_revenue_total",
                                                "offering");
  return vec;
}

}  // namespace

Ledger::Ledger() = default;
Ledger::~Ledger() = default;
Ledger::Ledger(Ledger&&) noexcept = default;
Ledger& Ledger::operator=(Ledger&&) noexcept = default;

Status Ledger::ValidateFields(const std::string& buyer_id, double inverse_ncp,
                              double price, double expected_error) {
  if (buyer_id.empty()) {
    return InvalidArgumentError("buyer id must be non-empty");
  }
  if (!(inverse_ncp > 0.0) || !std::isfinite(inverse_ncp)) {
    return InvalidArgumentError("inverse NCP must be positive and finite");
  }
  if (price < 0.0 || !std::isfinite(price)) {
    return InvalidArgumentError("price must be non-negative and finite");
  }
  if (!std::isfinite(expected_error)) {
    return InvalidArgumentError("expected error must be finite");
  }
  return OkStatus();
}

void Ledger::Commit(const LedgerEntry& entry, const std::string& payload) {
  ++next_sequence_;
  fingerprint_ = Fnv1a64(payload, fingerprint_);
  total_revenue_ += entry.price;
  spend_by_buyer_[entry.buyer_id] += entry.price;
  ++sales_per_price_point_[entry.inverse_ncp];
  revenue_by_model_[entry.model] += entry.price;
  ++sales_by_model_[entry.model];
  const std::string offering(ml::ModelKindToString(entry.model));
  LedgerSalesVec().WithLabel(offering).Increment();
  LedgerRevenueVec().WithLabel(offering).Add(entry.price);
}

StatusOr<int64_t> Ledger::Record(const std::string& buyer_id,
                                 ml::ModelKind model, double inverse_ncp,
                                 double price, double expected_error,
                                 const telemetry::TraceContext* trace) {
  NIMBUS_RETURN_IF_ERROR(
      ValidateFields(buyer_id, inverse_ncp, price, expected_error));
  LedgerEntry entry;
  entry.sequence = next_sequence_;
  entry.buyer_id = buyer_id;
  entry.model = model;
  entry.inverse_ncp = inverse_ncp;
  entry.price = price;
  entry.expected_error = expected_error;
  // Durability first: the sale is acknowledged only after the journal
  // accepts it, so a crashed process never has acknowledged sales
  // missing from the WAL and a failed append never half-records. The
  // payload is encoded once: the journal writes the bytes the
  // fingerprint folds.
  const std::string payload = Journal::EncodePayload(entry);
  if (journal_ != nullptr) {
    NIMBUS_RETURN_IF_ERROR(
        journal_->AppendPayload(entry.sequence, payload, trace));
  }
  Commit(entry, payload);
  return entry.sequence;
}

Status Ledger::AttachJournal(std::unique_ptr<Journal> journal) {
  if (journal == nullptr) {
    return InvalidArgumentError("cannot attach a null journal");
  }
  journal_ = std::move(journal);
  return OkStatus();
}

std::unique_ptr<Journal> Ledger::DetachJournal() {
  return std::move(journal_);
}

Status Ledger::FlushJournal() {
  return journal_ == nullptr ? OkStatus() : journal_->Flush();
}

StatusOr<Ledger> Ledger::FromRecoveredState(
    int64_t count, uint64_t fingerprint, double total_revenue,
    std::map<std::string, double> spend_by_buyer,
    std::map<double, int64_t> sales_per_price_point,
    std::map<ml::ModelKind, double> revenue_by_model,
    std::map<ml::ModelKind, int64_t> sales_by_model) {
  if (count < 0) {
    return InvalidArgumentError("recovered entry count must be >= 0");
  }
  Ledger ledger;
  ledger.next_sequence_ = count;
  ledger.fingerprint_ = fingerprint;
  ledger.total_revenue_ = total_revenue;
  ledger.spend_by_buyer_ = std::move(spend_by_buyer);
  ledger.sales_per_price_point_ = std::move(sales_per_price_point);
  ledger.revenue_by_model_ = std::move(revenue_by_model);
  ledger.sales_by_model_ = std::move(sales_by_model);
  // Bulk-mirror the audit telemetry the per-commit path would have
  // produced, so scraped totals survive the restart.
  for (const auto& [model, sales] : ledger.sales_by_model_) {
    LedgerSalesVec()
        .WithLabel(std::string(ml::ModelKindToString(model)))
        .Increment(sales);
  }
  for (const auto& [model, revenue] : ledger.revenue_by_model_) {
    LedgerRevenueVec()
        .WithLabel(std::string(ml::ModelKindToString(model)))
        .Add(revenue);
  }
  return ledger;
}

Status Ledger::ApplyRecovered(const std::vector<LedgerEntry>& tail) {
  std::string payload;  // Reused: one encoding buffer for the whole tail.
  for (const LedgerEntry& entry : tail) {
    if (entry.sequence != next_sequence_) {
      return FailedPreconditionError(
          "journal sequence gap: expected " + std::to_string(next_sequence_) +
          ", found " + std::to_string(entry.sequence));
    }
    NIMBUS_RETURN_IF_ERROR(ValidateFields(entry.buyer_id, entry.inverse_ncp,
                                          entry.price, entry.expected_error));
    Journal::EncodePayload(entry, &payload);
    Commit(entry, payload);
  }
  return OkStatus();
}

std::map<double, int64_t> Ledger::SalesPerPricePoint() const {
  return sales_per_price_point_;
}

double Ledger::TotalRevenue() const { return total_revenue_; }

double Ledger::RevenueForModel(ml::ModelKind model) const {
  const auto it = revenue_by_model_.find(model);
  return it == revenue_by_model_.end() ? 0.0 : it->second;
}

std::vector<std::pair<std::string, double>> Ledger::TopBuyers(
    int limit) const {
  std::vector<std::pair<std::string, double>> buyers(spend_by_buyer_.begin(),
                                                     spend_by_buyer_.end());
  std::sort(buyers.begin(), buyers.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) {
                return a.second > b.second;
              }
              return a.first < b.first;
            });
  if (limit >= 0 && static_cast<size_t>(limit) < buyers.size()) {
    buyers.resize(static_cast<size_t>(limit));
  }
  return buyers;
}

uint64_t FingerprintRows(const std::vector<LedgerEntry>& rows) {
  uint64_t fingerprint = kFnv64OffsetBasis;
  std::string payload;
  for (const LedgerEntry& row : rows) {
    Journal::EncodePayload(row, &payload);
    fingerprint = Fnv1a64(payload, fingerprint);
  }
  return fingerprint;
}

}  // namespace nimbus::market
