#ifndef NIMBUS_MARKET_CHECKPOINTER_H_
#define NIMBUS_MARKET_CHECKPOINTER_H_

#include <cstdint>
#include <string>

#include "common/statusor.h"
#include "market/journal.h"
#include "market/snapshot.h"

namespace nimbus::market {

// When the marketplace takes a checkpoint. A zero cadence disables that
// trigger; with both cadences zero, checkpoints happen only on demand
// (CheckpointNow / checkpoint-on-drain).
struct CheckpointPolicy {
  // Snapshot after this many new ledger records since the last
  // checkpoint.
  int64_t every_records = 0;
  // Snapshot once the live journal segment reaches this many bytes.
  int64_t every_journal_bytes = 0;
  // Snapshot generations kept on disk. Minimum 2: the newest rung plus
  // the fallback rung the recovery ladder needs when the newest is torn.
  int retain_snapshots = 2;
};

// Drives the snapshot + segment-sealing cycle for one marketplace:
// generation numbering, cadence checks, the commit sequence (journal
// flush -> snapshot -> manifest -> seal the live journal segment ->
// retention pruning), and the `snapshot_*` telemetry. Pure policy
// object — it holds no marketplace pointer (the marketplace is moved by
// value in benches), so the caller passes the captured State and the
// journal in.
//
// After committing generation G at sequence S_G, the live journal
// segment is sealed and a new one starts at S_G, so the next restore
// from G reads only the live segment. Sealed segments are kept forever:
// the fallback rung's tail [S_{G-1}, S_G) and the full-replay rung read
// them through Journal::ReadChain. Only snapshot generations beyond the
// retention count are pruned.
class Checkpointer {
 public:
  Checkpointer(std::string journal_path, CheckpointPolicy policy);

  // Resumes generation numbering from the on-disk manifest (falling
  // back to the snapshot directory scan), so a restarted process
  // continues the sequence instead of overwriting generation 1.
  Status Init();

  // True when the policy calls for a checkpoint given the ledger's
  // record count and the live journal segment size.
  bool Due(int64_t ledger_records, int64_t journal_live_bytes) const;

  // Commits one checkpoint: stamps the next generation into `state`,
  // flushes `journal` (when non-null) so the snapshot never runs ahead
  // of the journal file, writes the snapshot atomically, updates the
  // manifest, seals the live segment at `state.sequence`, and prunes
  // generations beyond the retention count. When
  // `state.sequence` equals the last committed checkpoint's sequence the
  // call is a no-op returning the existing generation (a drain right
  // after a cadence checkpoint should not burn a generation). Returns
  // the committed generation. A failed snapshot write leaves the
  // previous generation authoritative; a failed rotation or manifest
  // update degrades to a longer (but correct) tail and is reported in
  // stats and telemetry, not as a hard error.
  StatusOr<int64_t> Commit(snapshot::State state, Journal* journal);

  struct Stats {
    int64_t checkpoints = 0;        // Committed snapshots.
    int64_t failures = 0;           // Failed snapshot writes.
    int64_t rotation_failures = 0;  // Snapshot ok, segment sealing not.
    int64_t last_generation = 0;
    int64_t last_sequence = 0;  // Sequence covered by last_generation.
    int64_t prev_sequence = 0;  // ... by the generation before it.
  };
  const Stats& stats() const { return stats_; }
  const CheckpointPolicy& policy() const { return policy_; }
  const std::string& journal_path() const { return journal_path_; }

 private:
  std::string journal_path_;
  CheckpointPolicy policy_;
  Stats stats_;
};

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_CHECKPOINTER_H_
