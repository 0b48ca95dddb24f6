#ifndef NIMBUS_MARKET_JOURNAL_H_
#define NIMBUS_MARKET_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/profiler.h"
#include "common/statusor.h"
#include "common/telemetry.h"
#include "market/ledger.h"

namespace nimbus::market {

// Append-only binary write-ahead log for the ledger, and the only store
// of its rows: the journal chain IS the seller's sales history. A
// segment file is an 8-byte magic header ("NIMBUSJ1") followed by
// length-prefixed records:
//
//   u32 payload_len | u32 crc32(payload) | payload
//
// where the payload is one serialized LedgerEntry (fixed numeric fields
// in native little-endian order plus a length-prefixed buyer id). The
// CRC makes bit rot and torn writes detectable: replay accepts exactly
// the longest valid record prefix and classifies whatever follows as a
// torn tail (incomplete trailing record — the signature of a crash
// mid-append) or corruption (a full-length record whose CRC or encoding
// is wrong).
//
// A segment that does not start at sequence 0 carries the "NIMBUSJ2"
// magic followed by
//
//   u64 base_sequence | u32 crc32(base_sequence)
//
// before the first record; a J1 file is simply a segment with base 0.
//
// The chain: `path` is the live segment, the only file ever appended
// to. At a checkpoint, Rotate seals it unchanged as
// `<path>.seg.<base>` and starts a fresh live segment at the
// checkpoint's sequence. Sealed segments are never rewritten or pruned;
// in base order, followed by the live segment, they hold every record
// ever committed, densely numbered. ReadChain is the one reader over
// them (restore tails, the full-replay rung, history reads).
class Journal {
 public:
  // When to force bytes to stable storage.
  //   kNone:        leave flushing to the OS (fastest; a crash may lose
  //                 the most recent records but never corrupts the
  //                 prefix).
  //   kEveryRecord: fflush + fsync after each append (group-commit-free
  //                 durability; every acknowledged sale survives power
  //                 loss).
  enum class FsyncPolicy { kNone, kEveryRecord };

  struct Options {
    FsyncPolicy fsync = FsyncPolicy::kNone;
    // Base sequence stamped into the header when Open CREATES the file
    // (> 0 writes a J2 segment header). Ignored for existing files,
    // whose base comes from their own header.
    int64_t create_base_sequence = 0;
  };

  // Opens the live segment `path` for appending, creating it (with
  // header) when absent. An existing file must be a structurally valid
  // journal ending on a record boundary: Open scans it and fails with
  // kFailedPrecondition on a torn or corrupt tail, because appending
  // past one would bury the damage behind fresh records and silently
  // diverge replay from the acknowledged history. Run Journal::Replay
  // (which truncates torn tails) — or the marketplace's restore path —
  // first, then re-open.
  static StatusOr<Journal> Open(const std::string& path, Options options);

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  // Appends one record. The record is fully buffered into one fwrite so
  // a crash between appends never interleaves partial records from this
  // process.
  //
  // Append is idempotent across failed attempts of the SAME record:
  // when an append got its bytes buffered but failed at the flush/fsync
  // stage, retrying Append(entry) with the identical payload re-flushes
  // instead of re-buffering, so a retrying caller (the serving layer's
  // journal retry policy) can never duplicate a record. The retry must
  // carry the same payload, not just the same sequence number: if a
  // caller abandons a buffered-but-unacknowledged record (retry budget
  // exhausted) and later reuses its sequence for a DIFFERENT sale, the
  // abandoned bytes are already in the write buffer and cannot be
  // recalled, so accepting the new entry would silently diverge journal
  // and ledger. Append detects the payload mismatch, poisons the
  // journal, and fails with kFailedPrecondition instead. A short write
  // mid-record likewise poisons the journal — the in-process buffer may
  // hold a torn record — so further appends fail with
  // kFailedPrecondition (non-retryable) until the file is recovered.
  // `trace` (optional) nests the append span under the committing
  // request, annotated "retry-reflush" / "poisoned" as applicable.
  Status Append(const LedgerEntry& entry,
                const telemetry::TraceContext* trace = nullptr) {
    return AppendPayload(entry.sequence, EncodePayload(entry), trace);
  }

  // Append for a payload already encoded by EncodePayload — the
  // write-through target of Ledger::Record, which folds the same bytes
  // into its fingerprint.
  Status AppendPayload(int64_t sequence, const std::string& payload,
                       const telemetry::TraceContext* trace = nullptr);

  // Flushes user-space buffers and, under kEveryRecord, fsyncs.
  Status Flush();

  // Flushes and closes the file; further appends fail. Idempotent.
  Status Close();

  // Retires this handle for out-of-band recovery: best-effort flush of
  // whatever is buffered (committed records AND, possibly, a torn tail
  // — the recovery ladder truncates torn tails, so landing them on disk
  // is safe), then closes and permanently poisons the handle so a later
  // destructor cannot flush stale bytes over the repaired file. Unlike
  // Close, flush errors are swallowed: on a genuinely full disk the
  // buffered tail is already lost, and recovery replays what reached
  // the file. Must be called BEFORE recovery re-opens the path.
  // Idempotent.
  void Discard();

  // Seals the live segment after a checkpoint at `new_base_sequence`,
  // which must be the next sequence this segment would append: the file
  // is renamed unchanged to SealedSegmentPath(path, base_sequence()),
  // then a fresh J2 live segment with base `new_base_sequence` is
  // installed (header written to `<path>.tmp`, fsynced, renamed into
  // place). The journal stays open for appending throughout; a failure
  // before the seal rename leaves the live segment untouched and
  // appendable. A crash between the two renames leaves no live segment,
  // which restore recreates at the restored sequence. An empty live
  // segment (new_base_sequence == base_sequence()) is not sealed. Fault
  // point: `journal.rotate` (status, or enospc: the new header runs out
  // of disk halfway).
  Status Rotate(int64_t new_base_sequence);

  // `<path>.seg.NNNNNNNNNNNN`: the sealed segment whose first record has
  // sequence `base`.
  static std::string SealedSegmentPath(const std::string& path, int64_t base);

  struct SegmentFile {
    int64_t base = 0;  // From the file name.
    std::string path;
  };
  // The sealed segments of the chain at `path`, by ascending base
  // (directory scan; an unreadable directory yields none).
  static std::vector<SegmentFile> SealedSegments(const std::string& path);

  // Reads the chain at `path` — sealed segments, then the live one — and
  // returns its records with sequence >= `from_sequence`. Only the
  // segments that can hold such records are read, so a restore tail is
  // O(delta). Every record read is CRC-checked and must continue the
  // sequence densely, across segment boundaries too; each segment's
  // header base must match its file name. A torn tail is truncated only
  // in the newest file (the live segment, or the last sealed one when a
  // crash left no live segment); damage in any older file, a sequence
  // gap or overlap, two segments sharing a base, or a chain that starts
  // after or ends before `from_sequence` is kInternal, with every file
  // left untouched. kNotFound when no segment exists at all.
  static StatusOr<std::vector<LedgerEntry>> ReadChain(const std::string& path,
                                                      int64_t from_sequence);

  const std::string& path() const { return path_; }

  // First sequence the live segment can hold (0 for a J1 file).
  int64_t base_sequence() const { return base_sequence_; }

  // Current size of the live segment in bytes (header + appended
  // records, including any not-yet-flushed tail) — the checkpointer's
  // bytes-cadence input.
  int64_t live_bytes() const;

  // How a replay ended.
  enum class TailState {
    kClean,    // File ends exactly on a record boundary.
    kTorn,     // Trailing partial record (crash mid-append).
    kCorrupt,  // Full-length record with a CRC/encoding mismatch.
  };

  struct RecoveryReport {
    int64_t recovered_records = 0;
    int64_t valid_bytes = 0;    // Header + longest valid record prefix.
    int64_t dropped_bytes = 0;  // Bytes past the valid prefix.
    int64_t base_sequence = 0;  // From the segment header (0 for J1).
    TailState tail = TailState::kClean;
    std::string detail;         // Human-readable tail diagnosis.
  };

  struct ReplayOptions {
    // Fail with a precise kDataLoss-style Status (kInternal) on a
    // CRC-corrupt record instead of returning the valid prefix.
    bool strict = false;
    // Physically truncate a torn tail so the file is append-clean again.
    // Corrupt (CRC-mismatch) tails are never auto-truncated — they are
    // evidence of bit rot, not of a crash — only reported.
    bool truncate_torn_tail = true;
  };

  // Replays one segment file `path`, returning the longest valid prefix
  // of records (never crashes on arbitrary bytes). `report`, when
  // non-null, receives the tail diagnosis either way. The two-argument
  // overload uses the default ReplayOptions (lenient, truncating torn
  // tails). Fault point: `journal.replay`.
  static StatusOr<std::vector<LedgerEntry>> Replay(const std::string& path,
                                                   RecoveryReport* report,
                                                   ReplayOptions options);
  static StatusOr<std::vector<LedgerEntry>> Replay(
      const std::string& path, RecoveryReport* report = nullptr);

  // CRC-32 (IEEE 802.3, reflected) of `size` bytes — the record checksum.
  static uint32_t Crc32(const void* data, size_t size);

  // Serializes one entry to the record payload format (exposed for
  // tests constructing hand-corrupted journals).
  static std::string EncodePayload(const LedgerEntry& entry);
  // The same, into `out` (replacing its contents, keeping its capacity)
  // for callers that encode many entries.
  static void EncodePayload(const LedgerEntry& entry, std::string* out);

  // Inverse of EncodePayload.
  static StatusOr<LedgerEntry> DecodePayload(std::string_view payload);

 private:
  Journal(std::string path, Options options, std::FILE* file)
      : path_(std::move(path)),
        options_(options),
        file_(file),
        mu_(std::make_unique<prof::ProfiledMutex>("journal")) {}

  // Flush body without taking mu_ (Append and Close call it while
  // already holding the lock).
  Status FlushLocked();

  std::string path_;
  Options options_;
  std::FILE* file_ = nullptr;
  int64_t base_sequence_ = 0;
  // Sequence the next new record must carry (base + records in the live
  // segment) — Rotate seals only at this boundary so the chain stays
  // dense.
  int64_t next_sequence_ = 0;
  // Size of the live segment (header + records, buffered included),
  // maintained in-memory so the checkpointer's cadence check never
  // stats the file. Atomic so live_bytes() needs no lock.
  std::atomic<int64_t> live_bytes_{0};
  // Retry bookkeeping: identity (sequence + payload length/CRC) of the
  // record whose bytes are buffered but not yet acknowledged (flush
  // failed), and the poison flag for short writes / abandoned records.
  int64_t buffered_sequence_ = -1;
  uint32_t buffered_payload_size_ = 0;
  uint32_t buffered_payload_crc_ = 0;
  bool poisoned_ = false;
  // Serializes Append/Flush/Close and feeds mutex_*{mutex="journal"} —
  // fsync-policy stalls under the lock are visible in the contention
  // profile. unique_ptr keeps Journal movable (same pattern as the
  // broker's build_mu_); null only in a moved-from shell.
  std::unique_ptr<prof::ProfiledMutex> mu_;
};

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_JOURNAL_H_
