// Durability accounting: counters describing how a store has fared against
// corruption and crashes — checksum verification failures, quarantined
// blocks, journal recovery actions, transient-I/O retries, parity repair
// activity, and whether the store has degraded to read-only. Surfaced next
// to BufferPool::Stats via TiledStore::durability_stats().

#ifndef SHIFTSPLIT_STORAGE_DURABILITY_H_
#define SHIFTSPLIT_STORAGE_DURABILITY_H_

#include <cstdint>

namespace shiftsplit {

/// \brief Counters describing crash/corruption handling since open.
struct DurabilityStats {
  uint64_t checksum_failures = 0;   ///< reads that failed verification
  uint64_t quarantined_blocks = 0;  ///< distinct blocks currently quarantined
  uint64_t zero_filled_reads = 0;   ///< degraded reads served as zeros
  uint64_t io_retries = 0;          ///< transient-I/O retries attempted
  uint64_t journal_commits = 0;     ///< atomic flush batches committed
  uint64_t journal_replays = 0;     ///< recoveries that redid a commit
  uint64_t journal_rollbacks = 0;   ///< recoveries that discarded a torn one
  uint64_t unjournaled_write_backs = 0;  ///< evictions outside any commit
  uint64_t repaired_blocks = 0;     ///< corrupt blocks rebuilt from parity
  uint64_t unrepairable_blocks = 0; ///< reconstruction attempts that failed
  uint64_t parity_reads = 0;        ///< parity-block reads (repair + update)
  uint64_t parity_writes = 0;       ///< parity-block writes (the write amp)
  bool read_only = false;           ///< store degraded to read-only

  bool operator==(const DurabilityStats&) const = default;
};

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_STORAGE_DURABILITY_H_
