#ifndef NIMBUS_MARKET_MARKETPLACE_H_
#define NIMBUS_MARKET_MARKETPLACE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "market/broker.h"
#include "market/checkpointer.h"
#include "market/collusion.h"
#include "market/journal.h"
#include "market/ledger.h"
#include "market/snapshot.h"
#include "ml/model.h"

namespace nimbus::market {

// The full Nimbus marketplace: one dataset, a menu M of ML models (each
// served by its own Broker), a shared transaction ledger, and a
// collusion monitor. This is the system the demonstration paper shows —
// buyers browse offerings across models, compare price-error menus, and
// purchase attributed versions, while the seller gets consolidated
// revenue reporting.
class Marketplace {
 public:
  // Creates an empty marketplace over one train/test split. `options`
  // apply to every broker added later.
  Marketplace(data::TrainTestSplit split, Broker::Options options);

  Marketplace(Marketplace&&) = default;
  Marketplace& operator=(Marketplace&&) = default;
  Marketplace(const Marketplace&) = delete;
  Marketplace& operator=(const Marketplace&) = delete;

  // Adds one menu entry: trains the model's optimal instance and installs
  // the given arbitrage-free pricing function. Fails when the model is
  // incompatible with the dataset task or already offered.
  Status AddOffering(ml::ModelKind kind, double ridge_mu,
                     std::shared_ptr<const pricing::PricingFunction> pricing);

  // Model kinds currently on the menu, in insertion order.
  std::vector<ml::ModelKind> Offerings() const;

  // The broker serving one model kind; kNotFound when not offered.
  StatusOr<Broker*> BrokerFor(ml::ModelKind kind);

  // One row of the cross-model catalog shown to buyers.
  struct CatalogRow {
    ml::ModelKind model = ml::ModelKind::kLinearRegression;
    std::string report_loss;
    double best_expected_error = 0.0;   // At the most precise version.
    double worst_expected_error = 0.0;  // At the noisiest version.
    double min_price = 0.0;
    double max_price = 0.0;
  };
  // Builds the catalog (one row per offering, using each model's first
  // report loss).
  StatusOr<std::vector<CatalogRow>> Catalog();

  // Purchase with attribution: routes to the model's broker, records the
  // sale in the ledger and the collusion monitor.
  StatusOr<Broker::Purchase> Buy(const std::string& buyer_id,
                                 ml::ModelKind kind, double inverse_ncp,
                                 const std::string& report_loss_name);

  // Attributed price-budget purchase (Broker::BuyWithPriceBudget with
  // ledger/monitor recording).
  StatusOr<Broker::Purchase> BuyWithPriceBudget(
      const std::string& buyer_id, ml::ModelKind kind, double price_budget,
      const std::string& report_loss_name);

  // Books a quote produced by Broker::QuoteAtInverseNcp: journals and
  // records the ledger entry, updates the offering's collusion monitor
  // and the broker's revenue counters, and returns the ledger sequence.
  // This is the commit half of the serving layer's quote/commit split —
  // quotes run concurrently, commits are serialized by the caller (the
  // service's sequencer). Safe to retry after a kInternal journal
  // failure: Ledger::Record leaves memory untouched on failure and
  // Journal::Append is idempotent per sequence. `trace` (optional) nests
  // the durable journal append under the committing request's spans.
  StatusOr<int64_t> RecordQuotedSale(
      const std::string& buyer_id, ml::ModelKind kind,
      const Broker::Purchase& purchase,
      const telemetry::TraceContext* trace = nullptr);

  // Flushes the ledger's journal (OK when journaling is off).
  Status FlushJournal();

  // Retires the attached journal in place (Journal::Discard): buffered
  // bytes are best-effort flushed, the file is closed, and the handle
  // is permanently poisoned — but it stays ATTACHED, so any late
  // Record on this retired instance fails kFailedPrecondition instead
  // of silently committing an unjournaled sale that the replacement
  // marketplace (which re-opens the same path after shard quarantine)
  // would never see. No-op when journaling is off.
  void AbandonJournal();

  const Ledger& ledger() const { return ledger_; }
  double total_revenue() const { return ledger_.TotalRevenue(); }

  // ----- Durability & crash recovery -------------------------------------
  // Attaches a write-ahead journal at `path` (created when absent) so
  // every sale is durable before it is acknowledged. Attach before the
  // first sale for a complete audit trail.
  Status EnableJournal(const std::string& path,
                       Journal::Options options = Journal::Options{});

  // ----- Checkpointing (snapshot + segment sealing) ----------------------
  // Turns on checkpointing for the attached journal (EnableJournal /
  // RestoreFromCheckpoint must have run first). Resumes generation
  // numbering from the on-disk manifest. After this, commits trigger
  // MaybeCheckpoint per `policy`, and CheckpointNow / checkpoint-on-drain
  // work on demand.
  Status EnableCheckpoints(CheckpointPolicy policy);
  bool checkpoints_enabled() const { return checkpointer_ != nullptr; }
  // Stats of the active checkpointer; kFailedPrecondition when
  // checkpointing is off.
  StatusOr<Checkpointer::Stats> CheckpointStats() const;

  // Captures the transactional state a snapshot holds: aggregates,
  // sequence, fingerprint, monitor histories and broker counters.
  snapshot::State CaptureSnapshotState() const;

  // Takes a checkpoint unconditionally (subject to the checkpointer's
  // no-op-when-unchanged rule) and returns the committed generation.
  StatusOr<int64_t> CheckpointNow();

  // Takes a checkpoint iff the policy says one is due. Called at the end
  // of every successful commit (RecordQuotedSale / Buy); callers are
  // serialized by the service's commit sequencer, so snapshots observe a
  // quiescent ledger. Checkpoint failures are absorbed into telemetry
  // and a warning — serving never fails because a snapshot could not be
  // written (the journal still holds the full tail).
  Status MaybeCheckpoint();

  // Restores from the newest VALID snapshot generation plus the journal
  // tail past it — O(delta) in the records since that snapshot, not in
  // total history. The recovery ladder: for each generation, newest
  // first, validate the snapshot (footer + per-section CRCs), read the
  // journal chain from the snapshot's sequence (Journal::ReadChain:
  // dense, CRC-checked, torn live tail truncated); the first generation
  // that passes is applied — aggregates and monitor/broker counters
  // install directly from the snapshot, only the tail replays through
  // the ledger. A torn or corrupt snapshot falls back to the previous
  // generation (whose tail spans sealed segments), and when no
  // generation is usable, to a full replay of the chain from sequence 0
  // — never silent data loss. A journal sale of a model this
  // marketplace does not offer is kFailedPrecondition. Preconditions:
  // same AddOffering sequence as the crashed process, no sales yet
  // (kFailedPrecondition otherwise); kNotFound when there is neither a
  // snapshot nor a journal. Re-attaches the journal (healing a torn
  // tail, recreating a live segment lost in the rotation crash window)
  // so new sales append after the recovered prefix.
  struct RestoreOptions {
    // Applied when re-attaching the journal after restore.
    Journal::Options journal;
  };
  struct RestoreReport {
    enum class Source {
      kSnapshot,          // Newest generation was valid.
      kPreviousSnapshot,  // Fell back at least one generation.
      kFullReplay,        // No usable snapshot; replayed whole journal.
    };
    Source source = Source::kFullReplay;
    int64_t generation = 0;        // Generation applied (0 = full replay).
    int64_t snapshot_records = 0;  // Records covered by the snapshot.
    int64_t tail_records = 0;      // Records replayed from the journal.
    int snapshots_rejected = 0;    // Generations rejected before success.
  };
  Status RestoreFromCheckpoint(const std::string& path,
                               RestoreOptions options,
                               RestoreReport* report = nullptr);
  // Defaulted-options overload (an in-class default argument cannot use
  // RestoreOptions{} before the struct's initializers are complete).
  Status RestoreFromCheckpoint(const std::string& path) {
    return RestoreFromCheckpoint(path, RestoreOptions{});
  }

  // True while RestoreFromCheckpoint is rebuilding state. The serving
  // layer's health checks report "recovering" (not healthy) until
  // restore completes.
  bool recovering() const {
    return recovering_ != nullptr &&
           recovering_->load(std::memory_order_acquire);
  }

  // Per-offering collusion monitor (versions of different models cannot
  // be combined, so histories are tracked per model).
  StatusOr<const CollusionMonitor*> MonitorFor(ml::ModelKind kind) const;

  // Buyers flagged by any offering's monitor, sorted and deduplicated.
  std::vector<std::string> SuspiciousBuyers() const;

  // The error-curve cache shared by every offering's broker (nullptr
  // until the first AddOffering). Exposed so the serving layer and the
  // soak can assert on hit/miss/single-flight telemetry.
  const CurveCache* curve_cache() const { return curve_cache_.get(); }

 private:
  data::TrainTestSplit split_;
  Broker::Options options_;
  // Created lazily by the first AddOffering.
  std::shared_ptr<CurveCache> curve_cache_;
  std::vector<ml::ModelKind> offering_order_;
  std::map<ml::ModelKind, Broker> brokers_;
  std::map<ml::ModelKind, std::shared_ptr<const pricing::PricingFunction>>
      pricing_;
  std::map<ml::ModelKind, CollusionMonitor> monitors_;
  Ledger ledger_;
  std::unique_ptr<Checkpointer> checkpointer_;
  // Heap-allocated so the marketplace stays movable (std::atomic is
  // not); shared with nothing — the indirection is purely for moves.
  std::shared_ptr<std::atomic<bool>> recovering_ =
      std::make_shared<std::atomic<bool>>(false);
};

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_MARKETPLACE_H_
