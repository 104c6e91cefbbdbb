// Block-device abstraction. The wavelet coefficients live in fixed-size
// blocks of doubles; block size is measured in coefficients (the paper's
// B = 2^b convention — a B^d-coefficient multidimensional tile is one block).

#ifndef SHIFTSPLIT_STORAGE_BLOCK_MANAGER_H_
#define SHIFTSPLIT_STORAGE_BLOCK_MANAGER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "shiftsplit/storage/durability.h"
#include "shiftsplit/storage/io_stats.h"
#include "shiftsplit/util/operation_context.h"
#include "shiftsplit/util/status.h"

namespace shiftsplit {

/// \brief Block ids at or above this base address parity blocks instead of
/// data blocks: parity group `g` (the XOR of data blocks [g*G, (g+1)*G)) is
/// addressed as kParityIdBase + g. Backends without parity reject such ids;
/// FileBlockManager routes them to its parity sidecar, so a redo-journal
/// record can carry data and parity images through one WriteBlock interface.
inline constexpr uint64_t kParityIdBase = uint64_t{1} << 62;

/// \brief One pending block write, as seen by parity planning.
struct BlockWrite {
  uint64_t block_id = 0;
  std::span<const double> data;  ///< block_size doubles, not owned
};

/// \brief An absolute parity image for one group, ready to journal/write.
struct ParityBlockImage {
  uint64_t block_id = 0;      ///< kParityIdBase + group
  std::vector<double> data;   ///< block_size doubles (raw XOR bit pattern)
};

/// \brief Outcome of a repairing scrub pass (BlockManager::ScrubRepair).
struct ScrubReport {
  std::vector<uint64_t> repaired;      ///< rebuilt from parity and rewritten
  std::vector<uint64_t> unrepairable;  ///< still corrupt (quarantined)
  bool clean() const { return repaired.empty() && unrepairable.empty(); }
};

/// \brief Abstract array of fixed-size blocks of doubles.
///
/// Implementations count every ReadBlock/WriteBlock in stats(). Blocks that
/// were never written read back as all-zero. Safe for concurrent calls on
/// distinct blocks — the serving drain's staging reads and in-place writes
/// run beside the buffer pool's miss reads — and for concurrent reads of one
/// block. Writes to one block, and Resize, must be serialized by the
/// caller.
class BlockManager {
 public:
  virtual ~BlockManager() = default;

  /// Block capacity in coefficients (doubles).
  virtual uint64_t block_size() const = 0;

  /// Current number of addressable blocks.
  virtual uint64_t num_blocks() const = 0;

  /// \brief Grows (never shrinks) the device to `num_blocks` blocks; new
  /// blocks read as zero.
  virtual Status Resize(uint64_t num_blocks) = 0;

  /// \brief Reads block `id` into `out` (size must equal block_size()).
  virtual Status ReadBlock(uint64_t id, std::span<double> out) = 0;

  /// \brief Writes block `id` from `data` (size must equal block_size()).
  virtual Status WriteBlock(uint64_t id, std::span<const double> data) = 0;

  /// \brief Vectored read: fills `out` (size ids.size() * block_size()) with
  /// the blocks `ids`, concatenated in order. Each block is counted in
  /// stats() exactly as if read individually; backends with batched I/O
  /// primitives (FileBlockManager's preadv) override this to coalesce runs
  /// of consecutive ids into single system calls. On error, the contents of
  /// `out` are unspecified but the device is unchanged.
  virtual Status ReadBlocks(std::span<const uint64_t> ids,
                            std::span<double> out) {
    if (out.size() != ids.size() * block_size()) {
      return Status::InvalidArgument("read buffer size != ids * block size");
    }
    for (uint64_t i = 0; i < ids.size(); ++i) {
      SS_RETURN_IF_ERROR(
          ReadBlock(ids[i], out.subspan(i * block_size(), block_size())));
    }
    return Status::OK();
  }

  /// \brief Makes all completed writes durable (fsync on file backends).
  /// Backends without a durability boundary (memory) succeed trivially.
  virtual Status Sync() { return Status::OK(); }

  /// \brief Verifies the integrity of every block, quarantining and
  /// returning the ids that fail. Backends without checksums have nothing to
  /// verify and return an empty list.
  virtual Result<std::vector<uint64_t>> Scrub() {
    return std::vector<uint64_t>{};
  }

  /// \brief Toggles degraded reads: when on, a block that fails verification
  /// is quarantined and served as zeros instead of erroring — the read-only
  /// salvage mode. No-op on backends without checksums.
  virtual void set_degraded_reads(bool on) { (void)on; }

  /// \brief Corruption/recovery counters (all-zero for backends without
  /// checksums).
  virtual DurabilityStats durability_stats() const {
    return DurabilityStats{};
  }

  /// \brief Parity group size G (0 = parity disabled). When non-zero, every
  /// G consecutive data blocks share one XOR parity block addressed as
  /// kParityIdBase + (id / G), and corrupt blocks can be rebuilt in place.
  virtual uint64_t parity_group() const { return 0; }

  /// \brief Computes the absolute post-write parity images for every group
  /// touched by `writes` (the dirty set of one atomic commit) and stages
  /// them: the images are applied to the backend's pending-parity state so
  /// the subsequent WriteBlock calls for exactly these writes perform no
  /// incremental parity work, and the next Sync() persists the images.
  /// Journaling the returned images after the data entries makes parity
  /// crash-consistent with its group (see DESIGN.md §12). Backends without
  /// parity return an empty plan.
  virtual Result<std::vector<ParityBlockImage>> PlanParityCommit(
      std::span<const BlockWrite> writes) {
    (void)writes;
    return std::vector<ParityBlockImage>{};
  }

  /// \brief Journal-replay bracket: between Begin and End the backend
  /// suspends incremental parity maintenance. A replayed commit record
  /// carries the absolute parity images of every group it touched, so
  /// per-write incremental updates would double-apply — and would read
  /// torn pre-crash payloads. No-ops on backends without parity.
  virtual void BeginParityReplay() {}
  virtual void EndParityReplay() {}

  /// \brief Verifies every block and repairs corrupt ones from parity in
  /// place (rewrites heal the quarantine). Backends without parity degrade
  /// to a detect-only Scrub() whose corrupt blocks are all unrepairable.
  virtual Result<ScrubReport> ScrubRepair() {
    ScrubReport report;
    SS_ASSIGN_OR_RETURN(report.unrepairable, Scrub());
    return report;
  }

  /// \brief ReadBlock under an operation context: checks the deadline and
  /// cancellation before issuing I/O, and retries transient failures
  /// (IOError, Unavailable) under the context's retry budget with jittered
  /// backoff. A null context degenerates to a plain ReadBlock. Non-virtual
  /// on purpose — backends override the single-attempt primitives, and every
  /// backend gets the same resilience envelope.
  Status ReadBlockRetry(uint64_t id, std::span<double> out,
                        OperationContext* ctx) {
    return RetryLoop(ctx, [&] { return ReadBlock(id, out); });
  }

  /// \brief ReadBlocks under an operation context; see ReadBlockRetry.
  Status ReadBlocksRetry(std::span<const uint64_t> ids, std::span<double> out,
                         OperationContext* ctx) {
    return RetryLoop(ctx, [&] { return ReadBlocks(ids, out); });
  }

  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

 protected:
  IoStats stats_;

 private:
  /// Runs `attempt` under the context's deadline/cancellation/retry budget.
  template <typename Fn>
  Status RetryLoop(OperationContext* ctx, Fn&& attempt) {
    if (ctx == nullptr) return attempt();
    for (;;) {
      SS_RETURN_IF_ERROR(ctx->Check());
      Status st = attempt();
      if (st.ok() || !IsTransientError(st)) return st;
      if (!ctx->BackoffBeforeRetry()) {
        // Budget or deadline ended the retries: the deadline takes
        // precedence in the reported status, the transient error otherwise.
        Status gate = ctx->Check();
        return gate.ok() ? st : gate;
      }
    }
  }
};

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_STORAGE_BLOCK_MANAGER_H_
