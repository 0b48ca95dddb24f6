#ifndef NIMBUS_MARKET_LEDGER_H_
#define NIMBUS_MARKET_LEDGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/statusor.h"
#include "common/telemetry.h"
#include "ml/model.h"

namespace nimbus::market {

class Journal;  // market/journal.h

// One completed transaction as recorded by the marketplace.
struct LedgerEntry {
  int64_t sequence = 0;  // Monotone id assigned by the ledger.
  std::string buyer_id;
  ml::ModelKind model = ml::ModelKind::kLinearRegression;
  double inverse_ncp = 0.0;
  double price = 0.0;
  double expected_error = 0.0;
};

// The seller's books: running aggregates over every priced sale, in
// commit order. The ledger backs revenue accounting and per-model
// break-downs; the rows themselves live in exactly one place, the
// write-ahead journal (market/journal.h), whose sealed segments plus
// live segment are the full sales history (Journal::ReadChain).
//
// Reporting queries (TotalRevenue, RevenueForModel, SalesPerPricePoint,
// TopBuyers) are served from aggregates accumulated at commit time in
// commit order, so they cost O(1) in history AND stay bit-identical
// across a snapshot restore (the snapshot stores the accumulated doubles
// verbatim; floating-point addition order is preserved by construction).
//
// Fingerprint() identifies the history itself: FNV-1a 64 over every
// committed row's journal payload bytes, in commit order. Two ledgers
// with equal size, fingerprint and revenue booked the same rows byte for
// byte; FingerprintRows recomputes it from rows read back off the
// journal chain.
class Ledger {
 public:
  Ledger();
  ~Ledger();
  Ledger(Ledger&&) noexcept;
  Ledger& operator=(Ledger&&) noexcept;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  // Appends one transaction; assigns and returns its sequence number.
  // buyer_id must be non-empty, inverse_ncp > 0 and price >= 0 (both
  // finite). With a journal attached the entry is made durable first:
  // a failed append leaves the in-memory ledger untouched and surfaces
  // the journal's Status. `trace` (optional) nests the durable append
  // under the committing request's span tree.
  StatusOr<int64_t> Record(const std::string& buyer_id, ml::ModelKind model,
                           double inverse_ncp, double price,
                           double expected_error,
                           const telemetry::TraceContext* trace = nullptr);

  // ----- Durability ------------------------------------------------------
  // Attaches a write-ahead journal (market/journal.h); every subsequent
  // Record appends there before committing in memory. The journal must
  // correspond to this ledger's current state: freshly opened for an
  // empty ledger, or re-opened by Marketplace::RestoreFromCheckpoint.
  Status AttachJournal(std::unique_ptr<Journal> journal);
  bool journaling() const { return journal_ != nullptr; }
  // Detaches and returns the journal (e.g. to Close it explicitly).
  std::unique_ptr<Journal> DetachJournal();
  // The attached journal (nullptr when journaling is off) — the
  // checkpointer rotates it after a successful snapshot.
  Journal* journal() { return journal_.get(); }
  const Journal* journal() const { return journal_.get(); }

  // Flushes the attached journal's buffers (fsync under kEveryRecord);
  // OK when no journal is attached. The serving layer calls this as the
  // last step of a graceful drain.
  Status FlushJournal();

  // ----- Checkpoint restore ----------------------------------------------
  // Rebuilds a ledger from snapshot aggregates: `count` rows and their
  // `fingerprint` are accounted for, and queries serve from the given
  // accumulators. Mirrors the audit telemetry in bulk so /metrics
  // matches the pre-crash process. Aggregate doubles are installed
  // verbatim — bit-identical restore is the caller's contract, not a
  // recomputation. A full replay starts from the empty state: count 0,
  // fingerprint kFnv64OffsetBasis, no aggregates.
  static StatusOr<Ledger> FromRecoveredState(
      int64_t count, uint64_t fingerprint, double total_revenue,
      std::map<std::string, double> spend_by_buyer,
      std::map<double, int64_t> sales_per_price_point,
      std::map<ml::ModelKind, double> revenue_by_model,
      std::map<ml::ModelKind, int64_t> sales_by_model);

  // Commits journal-tail entries in order during recovery: validates
  // each entry's fields and that its sequence is exactly the next one,
  // then applies it through the normal commit path (aggregates,
  // fingerprint, telemetry). Stops at the first invalid entry.
  Status ApplyRecovered(const std::vector<LedgerEntry>& tail);

  // Number of committed rows (== the next sequence to assign).
  int64_t size() const { return next_sequence_; }

  // Number of recorded sales (same as size(); named for audit reports).
  int64_t SaleCount() const { return size(); }

  // Running FNV-1a 64 over the committed rows' journal payloads (class
  // comment).
  uint64_t Fingerprint() const { return fingerprint_; }

  // Sale count per supported price point x = 1/δ, ascending in x.
  std::map<double, int64_t> SalesPerPricePoint() const;

  // Sum of all prices.
  double TotalRevenue() const;

  // Revenue restricted to one model kind.
  double RevenueForModel(ml::ModelKind model) const;

  // Total spend per buyer, descending; ties broken by buyer id.
  std::vector<std::pair<std::string, double>> TopBuyers(int limit) const;

 private:
  friend class Marketplace;  // CaptureSnapshotState reads the aggregates.

  // Validates Record's field invariants.
  static Status ValidateFields(const std::string& buyer_id, double inverse_ncp,
                               double price, double expected_error);
  // Applies a validated entry whose journal payload is `payload`, and
  // mirrors the audit telemetry.
  void Commit(const LedgerEntry& entry, const std::string& payload);

  // Next sequence to assign == total committed rows.
  int64_t next_sequence_ = 0;
  uint64_t fingerprint_ = kFnv64OffsetBasis;

  // Reporting aggregates, accumulated in commit order (see class
  // comment for the bit-identity argument).
  double total_revenue_ = 0.0;
  std::map<std::string, double> spend_by_buyer_;
  std::map<double, int64_t> sales_per_price_point_;
  std::map<ml::ModelKind, double> revenue_by_model_;
  std::map<ml::ModelKind, int64_t> sales_by_model_;

  std::unique_ptr<Journal> journal_;
};

// The value Ledger::Fingerprint() reaches after committing `rows` in
// order to an empty ledger.
uint64_t FingerprintRows(const std::vector<LedgerEntry>& rows);

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_LEDGER_H_
