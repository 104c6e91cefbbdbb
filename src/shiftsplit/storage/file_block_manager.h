// File-backed BlockManager using POSIX pread/pwrite. The paper's experiments
// are "accurate implementations of the operations on real disks with real
// disk blocks" — this backend provides that fidelity; I/O counts are
// identical to the in-memory backend by construction.
//
// With Options::checksums the on-disk format grows a 16-byte footer per
// block (magic + CRC32C of the payload + store epoch) that is written on
// every WriteBlock and verified on every read. A block that fails
// verification is quarantined and the read fails with ChecksumMismatch —
// or, in degraded mode, is served as zeros so a corrupt store can still be
// salvaged read-only. Never-written blocks (all-zero payload and footer)
// verify trivially, so sparse ftruncate-extended tails stay valid.
//
// With Options::parity_group = G, every G consecutive blocks additionally
// share one XOR parity block in a `<path>.parity` sidecar (same stride,
// same footer format). A block failing verification is then rebuilt in
// place from parity ⊕ its verified siblings instead of being quarantined —
// inline on the read path, or in bulk by ScrubRepair(). Only a double fault
// (two corrupt strides in one group) is unrepairable and falls back to the
// quarantine/degraded path. Parity is maintained incrementally on every
// write (parity' = parity ⊕ old ⊕ new) and made crash-consistent by the
// redo journal: PlanParityCommit stages the absolute post-commit parity
// images for a FlushAtomic batch so they are journaled with the data and
// replayed after it (DESIGN.md §12). Parity I/O is tracked in
// DurabilityStats (parity_reads / parity_writes), never in IoStats — block
// I/O counts stay identical to a parity-less store.

#ifndef SHIFTSPLIT_STORAGE_FILE_BLOCK_MANAGER_H_
#define SHIFTSPLIT_STORAGE_FILE_BLOCK_MANAGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "shiftsplit/storage/block_manager.h"

struct iovec;

namespace shiftsplit {

/// \brief Block device stored in a single flat file.
///
/// Safe for concurrent calls on distinct blocks (see BlockManager): the
/// data path stages through per-call buffers, and an internal lock guards
/// the shared bookkeeping — the quarantine set, the durability counters,
/// parity staging and retry jitter. A verified read and a write to a store
/// without parity never take it.
class FileBlockManager : public BlockManager {
 public:
  struct Options {
    /// Append a per-block integrity footer (CRC32C + epoch) to every block
    /// and verify it on every read. Changes the on-disk stride; a file
    /// written with checksums cannot be opened without them (and vice
    /// versa) — the store manifest's format version records which.
    bool checksums = false;

    /// Store epoch stamped into every footer and required on read; detects
    /// a block file spliced in from a different store generation. Ignored
    /// without checksums.
    uint64_t epoch = 0;

    /// Degraded mode: a block failing verification is quarantined and read
    /// as zeros instead of failing — for read-only salvage of a corrupt
    /// store. Also settable later via set_degraded_reads().
    bool degraded_reads = false;

    /// XOR parity group size G: every G consecutive blocks share one parity
    /// block in the `<path>.parity` sidecar, and a corrupt block heals in
    /// place from parity ⊕ siblings (see file comment). 0 disables parity.
    /// Requires checksums; recorded as manifest format v3.
    uint64_t parity_group = 0;

    /// Transient-I/O retry budget: a short read/write that makes no
    /// progress (0 bytes, or EAGAIN) is retried up to this many times with
    /// capped exponential backoff and jitter before surfacing IOError.
    /// EINTR is always retried and does not consume the budget. Applies to
    /// every read and write loop; every consumed retry is counted in
    /// DurabilityStats::io_retries.
    uint32_t retry_attempts = 3;
    /// Initial backoff before the first retry, doubling per attempt up to
    /// RetryPolicy's cap.
    uint32_t retry_backoff_us = 100;
  };

  /// \brief Creates or opens the backing file. If the file exists it is
  /// opened with its current contents; its size must be a multiple of the
  /// on-disk block stride (payload bytes, plus the footer when checksums
  /// are on). With parity enabled the sidecar is opened (or created) next
  /// to it and zero-extended to one stride per group — all-zero parity is
  /// exactly right for all-zero (never-written) groups; a sidecar that is
  /// stale for non-zero data is restored by the next ScrubRepair().
  static Result<std::unique_ptr<FileBlockManager>> Open(
      const std::string& path, uint64_t block_size, const Options& options);

  /// \brief Legacy unchecksummed open (format v1 stores).
  static Result<std::unique_ptr<FileBlockManager>> Open(
      const std::string& path, uint64_t block_size) {
    return Open(path, block_size, Options{});
  }

  ~FileBlockManager() override;
  FileBlockManager(const FileBlockManager&) = delete;
  FileBlockManager& operator=(const FileBlockManager&) = delete;

  uint64_t block_size() const override { return block_size_; }
  uint64_t num_blocks() const override { return num_blocks_; }
  Status Resize(uint64_t num_blocks) override;

  /// \brief Reads block `id` (or, for id ≥ kParityIdBase, the raw payload
  /// of parity group id - kParityIdBase from the sidecar).
  Status ReadBlock(uint64_t id, std::span<double> out) override;

  /// \brief Writes block `id`, maintaining its group's parity incrementally
  /// (parity' = parity ⊕ old ⊕ new; a corrupt old payload is reconstructed
  /// from parity first, so the overwrite heals it — a double fault fails
  /// the write with ChecksumMismatch). For id ≥ kParityIdBase the data is
  /// written as the absolute parity image of its group — the journal-replay
  /// path. Parity updates are buffered in memory and persisted by Sync().
  Status WriteBlock(uint64_t id, std::span<const double> data) override;

  /// \brief Vectored read: runs of consecutive block ids become single
  /// contiguous reads. Checksummed files read runs through a bounded
  /// scratch buffer instead (same syscall coalescing) so footers can be
  /// stripped and verified.
  Status ReadBlocks(std::span<const uint64_t> ids,
                    std::span<double> out) override;

  /// \brief Flushes buffered parity images to the sidecar and fsyncs both
  /// files (just the data file when parity is off).
  Status Sync() override;

  /// \brief Verifies every block's footer, quarantining and returning the
  /// ids that fail (empty without checksums). Reads the whole file; each
  /// block is counted as one block read. Detect-only: no degraded-read
  /// masking and no repair — see ScrubRepair() for the healing pass.
  Result<std::vector<uint64_t>> Scrub() override;

  /// \brief Verifies every block, rebuilding corrupt ones from parity in
  /// place (payload rewritten with a fresh footer, quarantine cleared) and
  /// restoring every group's parity invariant — a corrupt or stale parity
  /// stride is recomputed from its verified members, which is also how a
  /// freshly parity-enabled (upgraded) store builds its sidecar. Reported
  /// parity rebuilds use kParityIdBase + group ids. Durable on return.
  Result<ScrubReport> ScrubRepair() override;

  uint64_t parity_group() const override { return parity_group_; }

  /// \brief Stages the absolute post-commit parity images for one atomic
  /// write batch; see BlockManager::PlanParityCommit.
  Result<std::vector<ParityBlockImage>> PlanParityCommit(
      std::span<const BlockWrite> writes) override;

  /// \brief See BlockManager: suspends incremental parity maintenance
  /// while a journal replay rewrites data and parity absolutely. Entering
  /// the bracket drops any staged parity state (the replayed record
  /// supersedes it).
  void BeginParityReplay() override;
  void EndParityReplay() override;

  void set_degraded_reads(bool on) override { degraded_reads_ = on; }
  bool degraded_reads() const { return degraded_reads_; }

  DurabilityStats durability_stats() const override;

  /// \brief Blocks currently quarantined (failed verification and not
  /// rewritten since), ascending.
  std::vector<uint64_t> quarantined() const;

  bool checksums() const { return checksums_; }
  const std::string& path() const { return path_; }

 private:
  FileBlockManager(std::string path, int fd, int parity_fd,
                   uint64_t block_size, uint64_t num_blocks,
                   const Options& options);

  /// How VerifyInto treats a verification failure: the serving path may
  /// repair from parity and mask with degraded zero-fill; the reporting
  /// path (scrubs) must do neither — fixing the old Scrub() practice of
  /// toggling the shared degraded_reads_ flag, which raced concurrent
  /// readers in thread-safe pool mode.
  enum class VerifyMode { kServe, kReport };

  // On-disk bytes per block: payload plus footer (when checksummed).
  uint64_t stride() const;
  // Parity strides in the sidecar: ceil(num_blocks / parity_group).
  uint64_t NumParityBlocks() const;
  // pread/pwrite loops with EINTR handling and the bounded transient-error
  // retry policy, against an explicit fd (data file or parity sidecar).
  // Read `sparse_zero` semantics: a read hitting EOF zero fills the
  // remainder (ftruncate-extended tail). ReadVecFd scatters one contiguous
  // range over `count` buffers (preadv), advancing `parts` as it reads.
  Status ReadVecFd(int fd, uint64_t offset, struct iovec* parts, int count);
  Status ReadRawFd(int fd, uint64_t offset, char* dst, uint64_t bytes);
  Status WriteRawFd(int fd, uint64_t offset, const char* src, uint64_t bytes);
  Status ReadRaw(uint64_t offset, char* dst, uint64_t bytes) {
    return ReadRawFd(fd_, offset, dst, bytes);
  }
  Status WriteRaw(uint64_t offset, const char* src, uint64_t bytes) {
    return WriteRawFd(fd_, offset, src, bytes);
  }
  // Counts one transient retry in io_retries_ and sleeps the jittered
  // backoff for 0-based `attempt` (BackoffDelayUs on retry_). Takes only
  // retry_mu_, so it runs with or without mu_ held.
  void BackoffRetry(uint32_t attempt);
  // Verifies one block image (payload + footer at `raw`); on failure the
  // serve mode tries a parity repair, then quarantines + zero-fills
  // (degraded) or returns ChecksumMismatch. `out` receives block_size_
  // doubles. Takes mu_ only when the image fails verification (or a
  // quarantine is to be cleared).
  Status VerifyInto(uint64_t id, const char* raw, std::span<double> out,
                    VerifyMode mode);
  // VerifyInto's failure path, for a `raw` stride that failed verification.
  Status VerifyFailed(uint64_t id, const char* raw, std::span<double> out,
                      VerifyMode mode);
  // Drops `id` from the quarantine; skips mu_ while nothing is quarantined.
  void ClearQuarantine(uint64_t id);

  // The *Locked helpers require mu_.
  void QuarantineLocked(uint64_t id);
  void ClearQuarantineLocked(uint64_t id);
  // Effective parity payload of `group` (payload bytes): the staged image
  // when one is pending, the verified sidecar stride otherwise.
  Status ParityPayloadLocked(uint64_t group, char* out);
  // Rebuilds block `id`'s payload as parity ⊕ verified siblings, validating
  // the candidate against the stored footer when that is structurally
  // intact. `corrupt_raw` is the stride that failed verification; `out`
  // receives payload bytes. Fails with ChecksumMismatch on a double fault,
  // and while the group's parity is planned for a commit whose writes may
  // be half on disk (its staged parity then matches neither side).
  Status ReconstructPayloadLocked(uint64_t id, const char* corrupt_raw,
                                  char* out);
  // ReconstructPayloadLocked + in-place rewrite (fresh footer, quarantine
  // cleared, repaired/unrepairable counted). Parity is left untouched: it
  // already agrees with the reconstructed payload.
  Status RepairBlockLocked(uint64_t id, const char* corrupt_raw,
                           std::span<double> out);
  // Incremental parity maintenance for one data write: folds old ⊕ new
  // into `group_image` (reconstructing a corrupt old payload from parity
  // first; double fault fails the write).
  Status XorOldNewLocked(uint64_t id, const char* new_payload,
                         char* group_image);
  // Writes every staged parity image to the sidecar (Sync's first half).
  Status FlushParityDirtyLocked();

  // Writes one payload + freshly computed footer at `index` strides into
  // `fd` (a data block or a parity stride). No counters, no lock.
  Status WritePayloadImage(int fd, uint64_t index, const char* payload);

  std::string path_;
  int fd_;
  int parity_fd_;          // -1 when parity is off
  uint64_t block_size_;
  uint64_t num_blocks_;
  bool checksums_;
  uint64_t epoch_;
  std::atomic<bool> degraded_reads_;
  uint64_t parity_group_;  // 0 = parity off
  RetryPolicy retry_;      // transient short-I/O retry (EAGAIN, zero writes)
  std::atomic<uint64_t> io_retries_{0};
  std::mutex retry_mu_;    // guards jitter_state_
  uint64_t jitter_state_;  // backoff jitter stream (deterministically seeded)

  // Bookkeeping shared by concurrent callers (see the class comment).
  mutable std::mutex mu_;
  DurabilityStats durability_;  // io_retries lives in io_retries_
  std::set<uint64_t> quarantined_;
  // quarantined_.size(), readable without mu_ by the verified-read path.
  std::atomic<uint64_t> quarantined_count_{0};
  // Staged parity images (group → payload bytes), persisted by Sync().
  std::map<uint64_t, std::vector<char>> parity_dirty_;
  // Groups whose staged image is an absolute post-commit plan
  // (PlanParityCommit): their data write-backs skip incremental updates.
  std::set<uint64_t> parity_planned_;
  bool parity_replay_ = false;  // journal replay writes parity absolutely
};

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_STORAGE_FILE_BLOCK_MANAGER_H_
