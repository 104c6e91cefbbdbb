// Test double: decorates a BlockManager and injects I/O failures, so storage
// and integration tests can exercise error paths deterministically. Failures
// are injected *before* the inner call, so a failed operation has no side
// effects on the device — exactly the situation the buffer pool's
// failure-atomicity contract is written for.

#ifndef SHIFTSPLIT_TESTS_STORAGE_FAULT_INJECTION_BLOCK_MANAGER_H_
#define SHIFTSPLIT_TESTS_STORAGE_FAULT_INJECTION_BLOCK_MANAGER_H_

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "shiftsplit/storage/block_manager.h"

namespace shiftsplit {
namespace testing {

/// \brief BlockManager decorator with three failure modes:
///  - FailNthRead / FailNthWrite: exactly the nth (1-based) subsequent
///    ReadBlock / WriteBlock fails with IOError; everything else passes.
///  - FailAfter(budget): every read/write past `budget` successful
///    operations fails until Refill (a "device died" simulation).
///  - CrashAfterNthOp(n): a power cut at durability op n. Durability ops
///    are block writes, device syncs, and — via ConsumeCrashOp, which a
///    Journal hook should call — the journal's own append/fsync/truncate
///    steps, so the whole commit protocol shares one "power domain". The
///    nth op fails and every subsequent operation (reads included) fails
///    too: the machine is off. With `drop_unsynced`, writes are staged in a
///    shadow map standing in for the OS page cache — only Sync publishes
///    them to the inner device, and the crash discards whatever was staged,
///    modelling a kernel that never flushed.
///
/// Like the devices it wraps, the decorator is safe for concurrent calls on
/// distinct blocks: one mutex guards every counter, knob and the shadow
/// map, and is released around the inner device's reads and writes.
class FaultInjectionBlockManager : public BlockManager {
 public:
  /// \param inner real device (not owned; must outlive the decorator)
  explicit FaultInjectionBlockManager(BlockManager* inner) : inner_(inner) {}

  void FailNthRead(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_read_at_ = reads_seen_ + n;
  }
  void FailNthWrite(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_write_at_ = writes_seen_ + n;
  }

  // ---- Chaos knobs (integration/chaos_soak_test.cc) ---------------------
  // Deterministic under a fixed arrival order.

  /// \brief Every nth read (by arrival order) fails with a transient
  /// IOError; the immediate retry passes — exercising the retry budget.
  /// 0 disables.
  void FailEveryNthRead(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    transient_every_ = n;
  }

  /// \brief All reads of block `id` fail with `status` until cleared —
  /// e.g. ChecksumMismatch to model a quarantined block.
  void InjectReadStatus(uint64_t id, Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    injected_status_[id] = std::move(status);
  }
  void ClearReadStatus(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    injected_status_.erase(id);
  }
  void ClearAllReadStatus() {
    std::lock_guard<std::mutex> lock(mu_);
    injected_status_.clear();
  }

  /// \brief Every nth read stalls `micros` before completing — a latency
  /// spike a deadline must cut short. 0 disables.
  void SetReadLatency(uint64_t every_nth, uint64_t micros) {
    std::lock_guard<std::mutex> lock(mu_);
    latency_every_ = every_nth;
    latency_us_ = micros;
  }

  /// Read/write operations beyond `budget` fail until Refill.
  void FailAfter(uint64_t budget) {
    std::lock_guard<std::mutex> lock(mu_);
    budget_ = budget;
  }
  void Refill(uint64_t budget) { FailAfter(budget); }
  void DisableBudget() {
    std::lock_guard<std::mutex> lock(mu_);
    budget_.reset();
  }

  /// \brief Arms the power-cut mode: the nth (1-based) durability op fails
  /// and the device is dead from then on.
  void CrashAfterNthOp(uint64_t n, bool drop_unsynced) {
    std::lock_guard<std::mutex> lock(mu_);
    crash_at_ = n;
    crash_ops_seen_ = 0;
    crashed_ = false;
    drop_unsynced_ = drop_unsynced;
    unsynced_.clear();
  }

  /// \brief Counts one durability op against the crash budget (called by
  /// WriteBlock/Sync internally, and by the Journal hook for journal-file
  /// steps). Fails once the budget is exhausted.
  Status ConsumeCrashOp() {
    std::lock_guard<std::mutex> lock(mu_);
    return ConsumeCrashOpLocked();
  }

  bool crashed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return crashed_;
  }
  uint64_t crash_ops_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return crash_ops_seen_;
  }

  uint64_t reads_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_seen_;
  }
  uint64_t writes_seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return writes_seen_;
  }

  uint64_t block_size() const override { return inner_->block_size(); }
  uint64_t num_blocks() const override { return inner_->num_blocks(); }
  Status Resize(uint64_t num_blocks) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (crashed_) return Status::IOError("simulated power cut: device off");
    }
    return inner_->Resize(num_blocks);
  }

  Status ReadBlock(uint64_t id, std::span<double> out) override {
    uint64_t stall_us = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++reads_seen_;
      if (reads_seen_ == fail_read_at_) {
        return Status::IOError("injected read failure");
      }
      if (const auto it = injected_status_.find(id);
          it != injected_status_.end()) {
        return it->second;
      }
      if (transient_every_ != 0 && reads_seen_ % transient_every_ == 0) {
        return Status::IOError("injected transient read failure");
      }
      if (latency_every_ != 0 && reads_seen_ % latency_every_ == 0) {
        stall_us = latency_us_;
      }
      if (crashed_) return Status::IOError("simulated power cut: device off");
      SS_RETURN_IF_ERROR(ConsumeBudgetLocked());
      ++stats_.block_reads;
      // Read-your-writes for staged (not yet synced) blocks.
      if (drop_unsynced_) {
        const auto it = unsynced_.find(id);
        if (it != unsynced_.end()) {
          std::copy(it->second.begin(), it->second.end(), out.begin());
          return Status::OK();
        }
      }
    }
    if (stall_us != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
    }
    return inner_->ReadBlock(id, out);
  }

  Status WriteBlock(uint64_t id, std::span<const double> data) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++writes_seen_;
      if (writes_seen_ == fail_write_at_) {
        return Status::IOError("injected write failure");
      }
      SS_RETURN_IF_ERROR(ConsumeCrashOpLocked());
      SS_RETURN_IF_ERROR(ConsumeBudgetLocked());
      ++stats_.block_writes;
      if (drop_unsynced_) {
        unsynced_[id].assign(data.begin(), data.end());
        return Status::OK();
      }
    }
    return inner_->WriteBlock(id, data);
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lock(mu_);
    SS_RETURN_IF_ERROR(ConsumeCrashOpLocked());
    if (drop_unsynced_) {
      for (const auto& [id, data] : unsynced_) {
        SS_RETURN_IF_ERROR(inner_->WriteBlock(id, data));
      }
      unsynced_.clear();
    }
    return inner_->Sync();
  }

  Result<std::vector<uint64_t>> Scrub() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (crashed_) return Status::IOError("simulated power cut: device off");
    }
    return inner_->Scrub();
  }

  void set_degraded_reads(bool on) override {
    inner_->set_degraded_reads(on);
  }

  DurabilityStats durability_stats() const override {
    return inner_->durability_stats();
  }

 private:
  Status ConsumeCrashOpLocked() {
    if (crashed_) return Status::IOError("simulated power cut: device off");
    if (crash_at_ == 0) return Status::OK();
    ++crash_ops_seen_;
    if (crash_ops_seen_ >= crash_at_) {
      crashed_ = true;
      unsynced_.clear();  // staged page-cache contents are lost
      return Status::IOError("simulated power cut");
    }
    return Status::OK();
  }

  Status ConsumeBudgetLocked() {
    if (!budget_.has_value()) return Status::OK();
    if (*budget_ == 0) return Status::IOError("injected device failure");
    --*budget_;
    return Status::OK();
  }

  BlockManager* inner_;
  mutable std::mutex mu_;  // guards everything below
  uint64_t reads_seen_ = 0;
  uint64_t writes_seen_ = 0;
  uint64_t fail_read_at_ = 0;   // 0 = disabled
  uint64_t fail_write_at_ = 0;  // 0 = disabled
  std::optional<uint64_t> budget_;
  uint64_t crash_at_ = 0;  // 0 = crash mode disabled
  uint64_t crash_ops_seen_ = 0;
  bool crashed_ = false;
  bool drop_unsynced_ = false;
  std::map<uint64_t, std::vector<double>> unsynced_;  // staged "page cache"
  uint64_t transient_every_ = 0;  // 0 = off
  uint64_t latency_every_ = 0;    // 0 = off
  uint64_t latency_us_ = 0;
  std::map<uint64_t, Status> injected_status_;
};

}  // namespace testing
}  // namespace shiftsplit

#endif  // SHIFTSPLIT_TESTS_STORAGE_FAULT_INJECTION_BLOCK_MANAGER_H_
