// Intent journal: the redo log that makes multi-block flushes atomic.
//
// Commit protocol (BufferPool::FlushAtomic, and the serving drain's
// TiledStore::JournalStaged / InstallStaged):
//   1. AppendWithParity — the full block set (ids + payload images +
//      CRC32Cs), followed by the post-commit parity of every group it
//      touches, is written to the sidecar journal file as one commit record
//      and fsynced. From this point the commit is durable.
//   2. The blocks are written in place and, by Complete, the device is
//      fsynced.
//   3. Complete truncates — the journal is removed; the commit is complete.
//
// Recovery (TiledStore::Open → Recover): a journal holding a complete,
// checksum-valid commit record is replayed into the device (idempotent
// redo — step 2 may have been interrupted anywhere); a torn or invalid
// record means step 2 never started, so it is discarded (rollback). Either
// way the store reopens in exactly the pre- or post-commit state — never a
// mix.

#ifndef SHIFTSPLIT_STORAGE_JOURNAL_H_
#define SHIFTSPLIT_STORAGE_JOURNAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "shiftsplit/storage/block_manager.h"
#include "shiftsplit/util/status.h"

namespace shiftsplit {

/// \brief One block image inside a commit record.
struct JournalEntry {
  uint64_t block_id = 0;
  std::span<const double> data;  ///< block_size doubles, not owned
};

/// \brief Sidecar redo journal holding at most one commit record.
class Journal {
 public:
  /// \brief Test hook called before every physical journal step ("append",
  /// "append-tail", "fsync", "truncate"); returning an error aborts the
  /// step, simulating a power cut at that point. Production journals have
  /// no hook.
  using Hook = std::function<Status(const char* op)>;

  explicit Journal(std::string path) : path_(std::move(path)) {}

  void set_hook(Hook hook) { hook_ = std::move(hook); }

  /// \brief Durably writes one commit record: after OK, a crash at any later
  /// point of the commit is recoverable by replay. Entries must all have
  /// `block_size` doubles. Overwrites any previous (completed) record.
  Status AppendCommit(std::span<const JournalEntry> entries,
                      uint64_t block_size);

  /// \brief Removes the journal once the in-place writes are durable,
  /// completing the commit. Idempotent.
  Status Truncate();

  /// \brief Step 1 of a commit of `writes` to `device`: plans the parity
  /// of every group the writes touch (PlanParityCommit), then appends data
  /// and parity images as one durable record (AppendCommit).
  Status AppendWithParity(BlockManager& device,
                          std::span<const BlockWrite> writes);

  /// \brief Step 3, once every block of the record is written in place:
  /// syncs `device` (data and staged parity), then truncates the journal.
  Status Complete(BlockManager& device);

  struct RecoveryResult {
    bool replayed = false;     ///< a complete commit record was redone
    bool rolled_back = false;  ///< a torn/invalid record was discarded
    uint64_t blocks = 0;       ///< blocks rewritten by replay
  };

  /// \brief Replays or discards whatever the journal holds (see file
  /// comment), removing it afterwards. A missing or empty journal is a
  /// clean open. Fails only on real I/O errors reading the journal or
  /// writing the device — corruption of the journal itself is a rollback,
  /// not an error.
  Result<RecoveryResult> Recover(BlockManager* device);

  const std::string& path() const { return path_; }
  uint64_t commits() const { return commits_; }
  uint64_t replays() const { return replays_; }
  uint64_t rollbacks() const { return rollbacks_; }

 private:
  Status CallHook(const char* op) {
    return hook_ ? hook_(op) : Status::OK();
  }
  // fsyncs the directory containing the journal so creation/removal of the
  // file itself is durable.
  Status SyncParentDir();

  std::string path_;
  Hook hook_;
  uint64_t commits_ = 0;
  uint64_t replays_ = 0;
  uint64_t rollbacks_ = 0;
};

/// \brief One buffered cell delta as persisted by DeltaLog.
struct DeltaRecord {
  uint64_t seq = 0;                    ///< global arrival sequence number
  double value = 0.0;                  ///< additive delta for the cell
  std::vector<uint64_t> coords;        ///< cell coordinates (ndim entries)
};

/// \brief Append-only sidecar log of individual cell deltas — the durability
/// companion of the serving layer's DeltaBuffer.
///
/// Unlike Journal (one redo record per atomic flush, truncated after every
/// commit), DeltaLog accumulates many small records between maintenance
/// drains: a delta is acknowledged to the writer once its record is fsynced,
/// and the log is truncated only when every logged delta has been applied to
/// the store. Recovery therefore replays `seq > applied_seq` records back
/// into the buffer (ServingCube::OpenOnDisk), making buffered-but-unapplied
/// deltas crash-safe.
///
/// Record layout (little-endian): u32 magic 'SSDR', u32 ndim, u64 seq,
/// f64 value, ndim×u64 coords, u32 crc32c(all preceding record bytes),
/// u32 zero pad. Replay stops at the first torn or checksum-invalid record
/// and truncates the file there, so a torn tail (crash mid-append, never
/// acknowledged) cannot strand later appends behind garbage.
class DeltaLog {
 public:
  explicit DeltaLog(std::string path) : path_(std::move(path)) {}

  /// \brief Test hook called before every physical flush (the write+fsync
  /// of one group-commit batch); returning an error fails the flush with
  /// exactly that status, simulating a full or failing disk without
  /// touching the file. The batch is retained just as for a real failure.
  /// Production logs have no hook.
  using Hook = std::function<Status()>;
  void set_flush_hook_for_test(Hook hook) {
    std::lock_guard<std::mutex> lock(mu_);
    flush_hook_ = std::move(hook);
  }

  /// \brief Stages one record in memory, in call order. Thread-compatible
  /// with Sync; the caller serializes Append calls (the serving buffer lock)
  /// so file order equals seq order.
  void Append(const DeltaRecord& record);

  /// \brief Durably persists every staged record with seq ≤ `seq` (group
  /// commit: one writer flushes the whole pending batch on behalf of
  /// concurrent callers, which wait). After OK, those records survive a
  /// crash. On a write/fsync failure the batch is retained and the error
  /// returned; callers that were waiting on the failed flush retry it
  /// themselves (and surface their own error if the fault persists). A
  /// full disk (ENOSPC/EDQUOT) returns kResourceExhausted — backpressure,
  /// not corruption: the retained batch flushes with the next Sync once
  /// space frees up, so the caller simply retries the ack later.
  Status Sync(uint64_t seq);

  /// \brief Reads the log, returning every valid record in file order. A
  /// torn or invalid tail is dropped and the file truncated to the last
  /// valid boundary; a missing file yields an empty vector.
  Result<std::vector<DeltaRecord>> Replay();

  /// \brief Removes the log (all records applied). Idempotent.
  Status Truncate();

  const std::string& path() const { return path_; }
  uint64_t appends() const;
  uint64_t syncs() const;
  uint64_t durable_seq() const;
  uint64_t torn_records() const { return torn_records_; }

 private:
  Status FlushPendingLocked(std::unique_lock<std::mutex>& lock);

  std::string path_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Hook flush_hook_;                    ///< test-only flush fault injector
  std::vector<uint8_t> pending_;       ///< encoded, not yet written bytes
  uint64_t pending_max_seq_ = 0;       ///< highest seq staged in pending_
  uint64_t durable_seq_ = 0;           ///< highest seq known fsynced
  bool flushing_ = false;              ///< a leader flush is in flight
  bool created_synced_ = false;        ///< parent dir fsynced after creation
  uint64_t appends_ = 0;
  uint64_t syncs_ = 0;
  uint64_t torn_records_ = 0;          ///< invalid tail records dropped
};

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_STORAGE_JOURNAL_H_
