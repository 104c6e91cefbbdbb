#include "shiftsplit/service/serving_cube.h"

#include <algorithm>
#include <bit>

#include "shiftsplit/core/md_shift_split.h"
#include "shiftsplit/core/query.h"

namespace shiftsplit {

namespace {

constexpr const char* kDeltaLogFile = "deltas.log";

// Write-set plan of one cell delta: a 1x...x1 kUpdate chunk anchored at the
// cell. Pure CPU — touches only the layout.
Result<ChunkApplyPlan> PlanCell(const TileLayout& layout,
                                std::span<const uint32_t> log_dims,
                                Normalization norm,
                                std::span<const uint64_t> coords,
                                double value) {
  TensorShape shape(std::vector<uint64_t>(coords.size(), 1));
  Tensor cell(shape);
  cell[0] = value;
  ApplyOptions apply;
  apply.mode = ApplyMode::kUpdate;
  apply.maintain_scaling_slots = true;
  apply.batched = true;
  // For an extent-1 chunk the dyadic position index along each dimension is
  // the absolute coordinate itself.
  return PlanChunkStandard(cell, coords, log_dims, layout, norm, apply);
}

// Microseconds elapsed since `start`, saturating at zero.
uint64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  return us.count() > 0 ? static_cast<uint64_t>(us.count()) : 0;
}

// Raises `max` to at least `value`.
void RaiseMax(std::atomic<uint64_t>& max, uint64_t value) {
  uint64_t prev = max.load(std::memory_order_relaxed);
  while (value > prev &&
         !max.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

// How long DrainAll waits for writes between taking their seq and
// publishing their write set (microseconds apart in practice) before it
// reports that it cannot advance.
constexpr std::chrono::milliseconds kInFlightWriteWait{100};

// Steady-clock microseconds since the process-wide epoch — the timestamp
// unit of every health transition in ServingStats.
uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* ShardHealthToString(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "HEALTHY";
    case ShardHealth::kDegraded:
      return "DEGRADED";
    case ShardHealth::kQuarantined:
      return "QUARANTINED";
    case ShardHealth::kRecovering:
      return "RECOVERING";
    case ShardHealth::kFailed:
      return "FAILED";
  }
  return "UNKNOWN";
}

Result<std::unique_ptr<ServingCube>> ServingCube::Attach(
    std::unique_ptr<WaveletCube> cube, const Options& options) {
  return Make(std::move(cube), options, /*dir=*/"");
}

Result<std::unique_ptr<ServingCube>> ServingCube::AttachDurable(
    std::unique_ptr<WaveletCube> cube, const std::string& dir,
    const Options& options) {
  if (dir.empty()) {
    return Status::InvalidArgument("AttachDurable needs a directory");
  }
  return Make(std::move(cube), options, dir);
}

Result<std::unique_ptr<ServingCube>> ServingCube::OpenOnDisk(
    const std::string& dir, uint64_t pool_blocks, const Options& options) {
  SS_ASSIGN_OR_RETURN(std::unique_ptr<WaveletCube> cube,
                      WaveletCube::OpenOnDisk(dir, pool_blocks));
  return Make(std::move(cube), options, dir);
}

Result<std::unique_ptr<ServingCube>> ServingCube::Make(
    std::unique_ptr<WaveletCube> cube, const Options& options,
    const std::string& dir) {
  if (cube == nullptr) {
    return Status::InvalidArgument("serving requires a cube");
  }
  if (cube->manifest().form != StoreForm::kStandard) {
    return Status::Unimplemented(
        "ServingCube currently supports standard-form cubes");
  }
  if (cube->store()->read_only()) {
    return Status::Unavailable(
        "store is read-only (failed recovery or quarantine); serving "
        "requires a writable store");
  }

  std::unique_ptr<ServingCube> serving(new ServingCube());
  serving->options_ = options;
  serving->cube_ = std::move(cube);
  TiledStore* store = serving->cube_->store();
  // Queries, writers and workers share the pool from different threads.
  store->pool().set_thread_safe(true);

  uint64_t applied_seq = 0;
  if (!dir.empty()) {
    // Durable mode: the applied watermark lives in one meta block past the
    // layout's range, committed by the same atomic flush as each drain
    // batch; the delta log sits beside the store files.
    serving->meta_block_ = store->layout().num_blocks();
    BlockManager& device = store->manager();
    if (device.num_blocks() <= serving->meta_block_) {
      // Fresh blocks read as zeros => watermark 0, consistent with an empty
      // log.
      SS_RETURN_IF_ERROR(device.Resize(serving->meta_block_ + 1));
    }
    std::vector<double> meta(device.block_size());
    SS_RETURN_IF_ERROR(device.ReadBlock(serving->meta_block_, meta));
    applied_seq = std::bit_cast<uint64_t>(meta[0]);
    serving->log_ = std::make_unique<DeltaLog>(dir + "/" + kDeltaLogFile);
  }

  DeltaBuffer::Config buffer_config;
  buffer_config.max_pending_deltas = options.max_pending_deltas;
  serving->buffer_ = std::make_unique<DeltaBuffer>(buffer_config,
                                                   serving->log_.get());
  serving->buffer_->InitWatermarks(applied_seq);

  if (serving->log_ != nullptr) {
    // Replay acknowledged-but-unapplied deltas (seq past the applied
    // watermark) back into the buffer, in log order — queries see them
    // immediately, the next drain applies them.
    SS_ASSIGN_OR_RETURN(std::vector<DeltaRecord> records,
                        serving->log_->Replay());
    const std::vector<uint32_t>& log_dims = serving->cube_->log_dims();
    for (const DeltaRecord& record : records) {
      if (record.seq <= applied_seq) continue;
      if (record.coords.size() != log_dims.size()) {
        return Status::Internal("delta log record dimensionality mismatch");
      }
      SS_ASSIGN_OR_RETURN(
          ChunkApplyPlan plan,
          PlanCell(store->layout(), log_dims,
                   serving->cube_->manifest().norm, record.coords,
                   record.value));
      serving->buffer_->Restore(record.coords, record.seq, plan.blocks);
      ++serving->replayed_deltas_;
    }
  }

  if (options.start_workers) serving->StartWorkers();
  return serving;
}

ServingCube::~ServingCube() {
  StopWorkers();
  // Un-drained deltas stay in the log (durable mode) for the next open; the
  // cube's own destructor writes back what the store already holds. Close()
  // is the orderly path.
}

Status ServingCube::CheckHealthy() const {
  std::lock_guard<std::mutex> lock(failed_mu_);
  return failed_status_;
}

void ServingCube::Poison(const Status& status) {
  std::lock_guard<std::mutex> lock(failed_mu_);
  // First error wins: the cause of the quarantine is the original failure,
  // not whatever cascaded from it.
  if (failed_status_.ok()) {
    failed_status_ = status;
    poisoned_at_us_ = SteadyNowUs();
  }
}

ShardHealth ServingCube::health() const {
  if (!CheckHealthy().ok()) return ShardHealth::kQuarantined;
  if (log_degraded_.load(std::memory_order_relaxed)) {
    return ShardHealth::kDegraded;
  }
  return ShardHealth::kHealthy;
}

Status ServingCube::poison_status() const { return CheckHealthy(); }

Status ServingCube::SyncLog(uint64_t seq) {
  const Status status = log_->Sync(seq);
  if (status.ok()) {
    log_degraded_.store(false, std::memory_order_relaxed);
    return status;
  }
  log_sync_failures_.fetch_add(1, std::memory_order_relaxed);
  log_degraded_.store(true, std::memory_order_relaxed);
  return status;
}

ServingCube::ExclusiveSection::ExclusiveSection(ServingCube* cube)
    : cube_(cube) {
  const auto wait_start = std::chrono::steady_clock::now();
  cube_->drain_mu_.lock();
  cube_->latch_.lock();
  cube_->latch_wait_us_.fetch_add(ElapsedUs(wait_start),
                                  std::memory_order_relaxed);
  hold_start_ = std::chrono::steady_clock::now();
}

ServingCube::ExclusiveSection::~ExclusiveSection() {
  cube_->latch_.unlock();
  cube_->drain_mu_.unlock();
  const uint64_t held = ElapsedUs(hold_start_);
  cube_->latch_hold_us_total_.fetch_add(held, std::memory_order_relaxed);
  cube_->latch_exclusive_holds_.fetch_add(1, std::memory_order_relaxed);
  RaiseMax(cube_->latch_hold_us_max_, held);
}

Status ServingCube::Abandon() {
  StopWorkers();
  Poison(Status::Unavailable("serving cube abandoned for recovery"));
  // The exclusive section waits out a running drain and in-flight queries;
  // any query arriving after the discard re-checks health under the latch
  // and fails instead of reading a store whose pages are gone.
  ExclusiveSection exclusive(this);
  const Status discard = cube_->store()->pool().Discard();
  closed_ = true;  // the destructor must not flush what we just dropped
  return discard;
}

Status ServingCube::BufferCell(std::span<const uint64_t> coords, double delta,
                               OperationContext* ctx, uint64_t* out_seq) {
  TiledStore* store = cube_->store();
  SS_ASSIGN_OR_RETURN(ChunkApplyPlan plan,
                      PlanCell(store->layout(), cube_->log_dims(),
                               cube_->manifest().norm, coords, delta));
  return buffer_->Add(coords, delta, plan.blocks, ctx, out_seq);
}

Status ServingCube::Add(std::span<const uint64_t> coords, double delta,
                        OperationContext* ctx) {
  SS_RETURN_IF_ERROR(CheckHealthy());
  uint64_t seq = 0;
  SS_RETURN_IF_ERROR(BufferCell(coords, delta, ctx, &seq));
  if (log_ != nullptr && options_.durable_acks) {
    SS_RETURN_IF_ERROR(SyncLog(seq));
  }
  MaybeKickWorkers();
  return Status::OK();
}

Status ServingCube::AddBuffered(std::span<const uint64_t> coords,
                                double delta, OperationContext* ctx,
                                uint64_t* seq) {
  SS_RETURN_IF_ERROR(CheckHealthy());
  uint64_t assigned = 0;
  SS_RETURN_IF_ERROR(BufferCell(coords, delta, ctx, &assigned));
  if (seq != nullptr) *seq = assigned;
  return Status::OK();
}

Status ServingCube::SyncAcks(uint64_t seq) {
  SS_RETURN_IF_ERROR(CheckHealthy());
  if (log_ != nullptr && options_.durable_acks) {
    SS_RETURN_IF_ERROR(SyncLog(seq));
  }
  MaybeKickWorkers();
  return Status::OK();
}

Status ServingCube::Update(const Tensor& deltas,
                           std::span<const uint64_t> origin,
                           OperationContext* ctx) {
  SS_RETURN_IF_ERROR(CheckHealthy());
  const TensorShape& shape = deltas.shape();
  if (origin.size() != shape.ndim() ||
      shape.ndim() != cube_->log_dims().size()) {
    return Status::InvalidArgument("origin/deltas dimensionality mismatch");
  }
  // Cell by cell in row-major order — the same order the synchronous
  // updater's reference application would use — with one group ack at the
  // end instead of one fsync per cell.
  std::vector<uint64_t> coords(shape.ndim(), 0);
  std::vector<uint64_t> absolute(shape.ndim(), 0);
  uint64_t last = 0;
  do {
    for (uint32_t d = 0; d < shape.ndim(); ++d) {
      absolute[d] = origin[d] + coords[d];
    }
    SS_RETURN_IF_ERROR(
        BufferCell(absolute, deltas.At(coords), ctx, &last));
  } while (shape.Next(coords));
  if (log_ != nullptr && options_.durable_acks) {
    SS_RETURN_IF_ERROR(SyncLog(last));
  }
  MaybeKickWorkers();
  return Status::OK();
}

Result<double> ServingCube::PointQuery(std::span<const uint64_t> point,
                                       bool use_scaling_slots,
                                       OperationContext* ctx) {
  return ExactValue(PointQuery(
      point, QueryOptions{.use_scaling_slots = use_scaling_slots,
                          .context = ctx}));
}

Result<double> ServingCube::RangeSum(std::span<const uint64_t> lo,
                                     std::span<const uint64_t> hi,
                                     OperationContext* ctx) {
  return ExactValue(RangeSum(lo, hi, QueryOptions{.context = ctx}));
}

Result<DegradedResult> ServingCube::PointQuery(std::span<const uint64_t> point,
                                               const QueryOptions& options) {
  SS_RETURN_IF_ERROR(CheckHealthy());
  // Snapshot before the latch: the drain horizon can no longer pass our
  // sequence number, so every delta <= snap is either still in the buffer
  // (folded by the overlay) or already applied to the store — exactly once
  // either way.
  DeltaBuffer::Snapshot snap(buffer_.get());
  const auto wait_start = std::chrono::steady_clock::now();
  std::shared_lock<std::shared_mutex> latch(latch_);
  latch_wait_us_.fetch_add(ElapsedUs(wait_start), std::memory_order_relaxed);
  // Re-check under the latch: Abandon() poisons before it discards dirty
  // pages, so a query that raced past the first check cannot read the
  // half-applied store the discard left behind.
  SS_RETURN_IF_ERROR(CheckHealthy());
  DeltaBuffer::OverlayView view(buffer_.get(), snap);
  QueryOptions q = options;
  q.overlay = &view;
  return cube_->PointQuery(point, q);
}

Result<DegradedResult> ServingCube::RangeSum(std::span<const uint64_t> lo,
                                             std::span<const uint64_t> hi,
                                             const QueryOptions& options) {
  SS_RETURN_IF_ERROR(CheckHealthy());
  DeltaBuffer::Snapshot snap(buffer_.get());
  const auto wait_start = std::chrono::steady_clock::now();
  std::shared_lock<std::shared_mutex> latch(latch_);
  latch_wait_us_.fetch_add(ElapsedUs(wait_start), std::memory_order_relaxed);
  SS_RETURN_IF_ERROR(CheckHealthy());  // see PointQuery: Abandon() race
  DeltaBuffer::OverlayView view(buffer_.get(), snap);
  QueryOptions q = options;
  q.overlay = &view;
  return cube_->RangeSum(lo, hi, q);
}

Status ServingCube::DrainOnce() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  // Abandon poisons before it takes drain_mu_: no batch starts on a store
  // whose pages it has discarded.
  SS_RETURN_IF_ERROR(CheckHealthy());
  std::optional<DeltaBuffer::DrainBatch> batch = buffer_->BeginDrain();
  if (!batch.has_value()) return Status::OK();
  // 1-3: stage the batch's present images, apply it privately and journal
  // it. Nothing in the store or the buffer has changed yet, so a failure
  // here leaves every contribution buffered for the next drain.
  Result<std::vector<TiledStore::StagedBlock>> staged =
      StageAndJournal(*batch);
  if (!staged.ok()) {
    buffer_->AbortDrain();
    Poison(staged.status());
    return staged.status();
  }
  // 4-5: install block by block, each swap-and-erase one section of the
  // block's buffer stripe, then sync and retire the journal record. A
  // failure leaves the batch half installed; the journal record replays it
  // on reopen, and nothing may flush the store or lift the poison first.
  const Status status = cube_->store()->InstallStaged(
      *staged, [this, upto = batch->upto](uint64_t block,
                                          const std::function<void()>& swap) {
        buffer_->InstallBlock(block, upto, swap);
      });
  if (!status.ok()) {
    batch_in_journal_.store(true, std::memory_order_relaxed);
    Poison(status);
    return status;
  }
  buffer_->FinishDrain(batch->upto);
  // Retire the log once everything accepted is applied (atomic with the
  // idle check, so a racing Add cannot lose its record).
  return buffer_->TruncateLogIfIdle();
}

Result<std::vector<TiledStore::StagedBlock>> ServingCube::StageAndJournal(
    const DeltaBuffer::DrainBatch& batch) {
  TiledStore* store = cube_->store();
  std::vector<uint64_t> ids;
  ids.reserve(batch.blocks.size() + 1);
  for (const DeltaBuffer::DrainBlock& block : batch.blocks) {
    ids.push_back(block.block);
  }
  // The meta block sits past the layout, so it stays last and ids stay
  // ascending.
  if (meta_block_ != kNoMetaBlock) ids.push_back(meta_block_);
  SS_ASSIGN_OR_RETURN(std::vector<TiledStore::StagedBlock> staged,
                      store->StageBlocks(ids));
  for (size_t i = 0; i < batch.blocks.size(); ++i) {
    SS_RETURN_IF_ERROR(store->ApplyToStaged(staged[i], batch.blocks[i].ops));
  }
  if (meta_block_ != kNoMetaBlock) {
    // The applied watermark rides in the same commit record as the batch.
    staged.back().image[0] = std::bit_cast<double>(batch.upto);
  }
  SS_RETURN_IF_ERROR(store->JournalStaged(staged));
  return staged;
}

ServingCube::ScrubTickResult ServingCube::ScrubTick(uint64_t max_blocks) {
  ScrubTickResult result;
  if (max_blocks == 0 || !CheckHealthy().ok()) return result;
  std::lock_guard<std::mutex> scrub_lock(scrub_mu_);
  TiledStore* store = cube_->store();
  BlockManager& device = store->manager();
  std::vector<double> scratch(device.block_size());
  {
    // Exclusive section: an in-place rebuild must race neither a query nor
    // a drain on the same block, nor a drain's commit on the block's parity
    // group.
    ExclusiveSection exclusive(this);
    const uint64_t num_blocks = device.num_blocks();
    if (num_blocks == 0) return result;
    if (scrub_cursor_ >= num_blocks) scrub_cursor_ = 0;
    for (uint64_t i = 0; i < max_blocks && scrub_cursor_ < num_blocks; ++i) {
      const uint64_t id = scrub_cursor_++;
      const uint64_t repaired_before =
          device.durability_stats().repaired_blocks;
      // The serving read path repairs a corrupt block from parity before
      // failing; a still-failing read is a double fault for the supervisor.
      const Status read = device.ReadBlock(id, scratch);
      ++result.scanned;
      if (device.durability_stats().repaired_blocks > repaired_before) {
        ++result.repaired;
        // A cached copy of the block predates the rebuild only if it was
        // populated from a degraded zero-fill; drop it (dirty frames are
        // newer than disk and survive).
        const uint64_t one[] = {id};
        store->pool().InvalidateBlocks(one);
      } else if (!read.ok()) {
        ++result.unrepairable;
      }
    }
    if (scrub_cursor_ >= num_blocks) {
      scrub_cursor_ = 0;
      result.wrapped = true;
    }
  }
  scrubbed_blocks_.fetch_add(result.scanned, std::memory_order_relaxed);
  scrub_repairs_.fetch_add(result.repaired, std::memory_order_relaxed);
  parity_repairs_.fetch_add(result.repaired, std::memory_order_relaxed);
  parity_unrepairable_.fetch_add(result.unrepairable,
                                 std::memory_order_relaxed);
  if (result.wrapped) scrub_passes_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Result<ScrubReport> ServingCube::RepairNow() {
  const Status poison = CheckHealthy();
  const bool checksum_poisoned =
      !poison.ok() && poison.code() == StatusCode::kChecksumMismatch;
  if (!poison.ok() &&
      (!checksum_poisoned ||
       batch_in_journal_.load(std::memory_order_relaxed))) {
    // Not a corruption incident, or a batch only a reopen's journal replay
    // completes: parity cannot help.
    return poison;
  }
  std::lock_guard<std::mutex> scrub_lock(scrub_mu_);
  ScrubReport report;
  {
    ExclusiveSection exclusive(this);
    SS_ASSIGN_OR_RETURN(report, cube_->store()->ScrubRepair());
  }
  parity_repairs_.fetch_add(report.repaired.size(),
                            std::memory_order_relaxed);
  parity_unrepairable_.fetch_add(report.unrepairable.size(),
                                 std::memory_order_relaxed);
  if (!report.unrepairable.empty() || !checksum_poisoned) return report;
  {
    // Every block verified or was rebuilt: the corruption incident is
    // over. Clear the poison only if it is still that incident.
    std::lock_guard<std::mutex> lock(failed_mu_);
    if (failed_status_.code() == StatusCode::kChecksumMismatch &&
        !batch_in_journal_.load(std::memory_order_relaxed)) {
      failed_status_ = Status::OK();
      poisoned_at_us_ = 0;
    }
  }
  // The drain the checksum failure interrupted failed before its journal
  // commit, so every contribution is still buffered: drain them the normal
  // way, each batch committing with its own watermark.
  SS_RETURN_IF_ERROR(DrainAll());
  MaybeKickWorkers();
  return report;
}

Status ServingCube::DrainAll() {
  SS_RETURN_IF_ERROR(CheckHealthy());
  for (;;) {
    const uint64_t applied_before = buffer_->applied_seq();
    if (buffer_->last_seq() == applied_before) {
      return buffer_->TruncateLogIfIdle();
    }
    SS_RETURN_IF_ERROR(DrainOnce());
    SS_RETURN_IF_ERROR(CheckHealthy());
    // A write between taking its seq and publishing its write set holds
    // the horizon back only briefly; an active snapshot may hold it
    // indefinitely.
    if (buffer_->applied_seq() == applied_before &&
        !buffer_->AwaitInFlightWrites(kInFlightWriteWait)) {
      return Status::Unavailable(
          "drain cannot advance: active snapshots or unpublished writes pin "
          "the horizon");
    }
  }
}

bool ServingCube::ShouldDrain() const {
  if (!CheckHealthy().ok()) return false;
  return buffer_->pending_deltas() >= options_.drain_min_deltas ||
         buffer_->OldestPendingOlderThan(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 options_.max_delta_age));
}

void ServingCube::MaybeKickWorkers() {
  if (!workers_running_.load(std::memory_order_acquire)) return;
  if (buffer_->pending_deltas() < options_.drain_min_deltas) return;
  {
    std::lock_guard<std::mutex> lock(worker_mu_);
    kick_ = true;
  }
  worker_cv_.notify_one();
}

void ServingCube::WorkerLoop() {
  const auto poll = std::max<std::chrono::milliseconds>(
      std::chrono::milliseconds(1),
      std::min<std::chrono::milliseconds>(options_.max_delta_age / 2,
                                          std::chrono::milliseconds(20)));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(worker_mu_);
      worker_cv_.wait_for(lock, poll,
                          [this] { return stop_.load() || kick_; });
      if (stop_.load()) return;
      kick_ = false;
    }
    if (ShouldDrain()) {
      (void)DrainOnce();  // failure poisons the cube; the loop idles then
    }
  }
}

void ServingCube::StartWorkers() {
  if (!workers_.empty()) return;
  uint32_t n = options_.num_workers;
  if (!options_.oversubscribe) {
    n = std::min(n, std::max(1u, std::thread::hardware_concurrency()));
  }
  stop_.store(false);
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  workers_running_.store(true, std::memory_order_release);
}

void ServingCube::StopWorkers() {
  if (workers_.empty()) return;
  // Drop the hot-path flag first: a concurrent Add that already passed the
  // check at worst locks worker_mu_ and signals the cv, which is safe while
  // we join; it can no longer see the vector we are about to clear.
  workers_running_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(worker_mu_);
    stop_.store(true);
  }
  worker_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  stop_.store(false);
}

Status ServingCube::Close() {
  StopWorkers();
  if (closed_) return Status::OK();
  closed_ = true;
  Status drain = CheckHealthy();
  if (drain.ok()) drain = DrainAll();
  // A batch left in the journal replays on reopen; the store's close would
  // flush, and a flush's commit record replaces the journaled one.
  if (batch_in_journal_.load(std::memory_order_relaxed)) return drain;
  const Status close = cube_->Close();
  return drain.ok() ? close : drain;
}

Status ServingCube::CrashForTest() {
  StopWorkers();
  SS_RETURN_IF_ERROR(cube_->store()->pool().Discard());
  Poison(Status::Internal("serving cube crashed (CrashForTest)"));
  closed_ = true;  // the destructor must not flush what the crash dropped
  return Status::OK();
}

ServingStats ServingCube::stats() const {
  ServingStats out;
  buffer_->StatsInto(&out);
  out.replayed_deltas = replayed_deltas_;
  out.latch_wait_us_total = latch_wait_us_.load(std::memory_order_relaxed);
  out.latch_hold_us_total =
      latch_hold_us_total_.load(std::memory_order_relaxed);
  out.latch_hold_us_max = latch_hold_us_max_.load(std::memory_order_relaxed);
  out.latch_exclusive_holds =
      latch_exclusive_holds_.load(std::memory_order_relaxed);
  if (log_ != nullptr) {
    out.log_appends = log_->appends();
    out.log_syncs = log_->syncs();
    // Every delta at or below the applied watermark is durable in the
    // committed store, also after the idle truncation restarted the log.
    out.durable_seq = std::max(log_->durable_seq(), out.applied_seq);
    out.log_torn_records = log_->torn_records();
  }
  out.log_sync_failures =
      log_sync_failures_.load(std::memory_order_relaxed);
  // Scrub/repair counters come from this layer's own atomics, not a
  // DurabilityStats read: the device counters are plain fields a concurrent
  // drain is mutating. Inline read-path repairs therefore show up in
  // durability_stats() (quiescent callers) but not here.
  out.scrub_passes = scrub_passes_.load(std::memory_order_relaxed);
  out.scrubbed_blocks = scrubbed_blocks_.load(std::memory_order_relaxed);
  out.scrub_repairs = scrub_repairs_.load(std::memory_order_relaxed);
  out.parity_repairs = parity_repairs_.load(std::memory_order_relaxed);
  out.parity_unrepairable =
      parity_unrepairable_.load(std::memory_order_relaxed);
  out.health = health();
  {
    std::lock_guard<std::mutex> lock(failed_mu_);
    if (!failed_status_.ok()) {
      out.poison_code = failed_status_.code();
      out.poison_message = failed_status_.message();
      out.poisoned_at_us = poisoned_at_us_;
      out.health_since_us = poisoned_at_us_;
    }
  }
  return out;
}

}  // namespace shiftsplit
