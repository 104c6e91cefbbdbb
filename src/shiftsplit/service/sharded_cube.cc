#include "shiftsplit/service/sharded_cube.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <utility>

#include "shiftsplit/service/shard_supervisor.h"

namespace shiftsplit {

namespace {

constexpr const char* kShardSetManifest = "shardset.manifest";

std::string ShardSetPath(const std::string& dir) {
  return (std::filesystem::path(dir) / kShardSetManifest).string();
}

std::string ShardPath(const std::string& dir, const std::string& shard_dir) {
  return (std::filesystem::path(dir) / shard_dir).string();
}

uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

bool ShardedCube::IsShardedDir(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::exists(ShardSetPath(dir), ec);
}

Result<std::unique_ptr<ShardedCube>> ShardedCube::CreateOnDisk(
    const std::string& dir, std::vector<uint32_t> log_dims,
    uint32_t num_shards, const WaveletCube::Options& cube_options,
    const Options& options) {
  if (cube_options.form != StoreForm::kStandard) {
    return Status::Unimplemented(
        "ShardedCube currently supports standard-form cubes");
  }
  SS_ASSIGN_OR_RETURN(ShardRouter router,
                      ShardRouter::Make(log_dims, num_shards));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create sharded store directory " + dir);
  }

  ShardSetManifest manifest;
  manifest.num_shards = num_shards;
  manifest.split_dim = router.split_dim();
  manifest.log_dims = std::move(log_dims);
  for (uint32_t s = 0; s < num_shards; ++s) {
    manifest.shard_dirs.push_back(ShardSetManifest::ShardDirName(s));
  }
  // Shard stores first, manifest last: a crash mid-create leaves either no
  // shard set at all (no shardset.manifest) or a complete one.
  for (uint32_t s = 0; s < num_shards; ++s) {
    SS_ASSIGN_OR_RETURN(
        std::unique_ptr<WaveletCube> cube,
        WaveletCube::CreateOnDisk(ShardPath(dir, manifest.shard_dirs[s]),
                                  router.shard_log_dims(), cube_options));
    SS_RETURN_IF_ERROR(cube->Close());
  }
  SS_RETURN_IF_ERROR(manifest.Save(ShardSetPath(dir)));
  return OpenOnDisk(dir, options);
}

Result<std::unique_ptr<ShardedCube>> ShardedCube::OpenOnDisk(
    const std::string& dir, const Options& options) {
  SS_ASSIGN_OR_RETURN(ShardSetManifest manifest,
                      ShardSetManifest::Load(ShardSetPath(dir)));
  SS_ASSIGN_OR_RETURN(
      ShardRouter router,
      ShardRouter::Make(manifest.log_dims, manifest.split_dim,
                        manifest.num_shards));
  std::unique_ptr<ShardedCube> sharded(new ShardedCube());
  sharded->router_ = std::move(router);
  sharded->options_ = options;
  sharded->dir_ = dir;
  sharded->shard_dirs_ = manifest.shard_dirs;
  sharded->slots_.reserve(manifest.num_shards);
  const uint64_t now = SteadyNowUs();
  for (uint32_t s = 0; s < manifest.num_shards; ++s) {
    SS_ASSIGN_OR_RETURN(
        std::unique_ptr<ServingCube> shard,
        ServingCube::OpenOnDisk(ShardPath(dir, manifest.shard_dirs[s]),
                                options.pool_blocks_per_shard,
                                options.serving));
    if (shard->cube()->log_dims() != sharded->router_.shard_log_dims()) {
      return Status::Internal(
          "shard " + manifest.shard_dirs[s] +
          " does not match the shard set's per-shard sub-domain");
    }
    if (s == 0) {
      sharded->norm_ = shard->cube()->manifest().norm;
      sharded->blocks_per_shard_ =
          shard->cube()->store()->layout().num_blocks();
    }
    auto slot = std::make_unique<Slot>();
    slot->since_us = now;
    if (options.track_energy) {
      SS_RETURN_IF_ERROR(shard->cube()->store()->EnableEnergyTracking());
      // Replayed-but-unapplied deltas are not in the energy index yet; the
      // ceiling stays at +infinity until the supervisor refreshes it at
      // the first fully-drained observation.
      if (shard->pending_deltas() == 0) {
        slot->energy_ceiling = shard->cube()->store()->TotalEnergyCeiling();
      }
    }
    slot->cube = std::shared_ptr<ServingCube>(std::move(shard));
    sharded->slots_.push_back(std::move(slot));
  }
  if (options.supervise) {
    sharded->supervisor_ = std::make_unique<ShardSupervisor>(
        sharded.get(), options.supervisor_poll,
        options.supervisor_jitter_seed);
    if (options.serving.start_workers) sharded->supervisor_->Start();
  }
  return sharded;
}

ShardedCube::~ShardedCube() { StopWorkers(); }

std::string ShardedCube::ShardDirPath(uint32_t shard) const {
  return ShardPath(dir_, shard_dirs_[shard]);
}

bool ShardedCube::SupervisorRunning() const {
  return supervisor_ != nullptr && supervisor_->running();
}

Status ShardedCube::UnavailableLocked(uint32_t shard,
                                      const Slot& slot) const {
  std::string msg = "shard " + std::to_string(shard) + " is " +
                    ShardHealthToString(slot.health);
  if (slot.health == ShardHealth::kFailed) {
    msg += " (terminal; operator action required)";
  }
  if (!slot.cause.ok()) {
    msg += ": " + std::string(StatusCodeToString(slot.cause.code())) + ": " +
           slot.cause.message();
  }
  return Status::Unavailable(std::move(msg));
}

std::shared_ptr<ServingCube> ShardedCube::AcquireServing(
    uint32_t shard, Status* why) const {
  const Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (ShardHealthServes(slot.health) && slot.cube != nullptr) {
    return slot.cube;
  }
  if (why != nullptr) *why = UnavailableLocked(shard, slot);
  return nullptr;
}

void ShardedCube::NoteQuarantined(uint32_t shard,
                                  const std::shared_ptr<ServingCube>& cube) {
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  // Stale observation: the slot already moved past this cube instance.
  if (slot.cube != cube) return;
  if (!ShardHealthServes(slot.health)) return;
  slot.health = ShardHealth::kQuarantined;
  slot.cause = cube->poison_status();
  slot.since_us = SteadyNowUs();
  slot.attempts = 0;
  slot.next_attempt_us = slot.since_us;  // first recovery attempt is free
  ++slot.quarantines;
}

bool ShardedCube::MarkRepairing(uint32_t shard,
                                const std::shared_ptr<ServingCube>& cube) {
  // Only data corruption is parity-repairable; drain/flush failures of any
  // other kind need the full teardown + journal-replay rebuild. And without
  // a supervisor nobody would ever run the repair, so the slot must not be
  // left DEGRADED-forever — quarantine as before.
  if (!SupervisorRunning()) return false;
  if (cube->poison_status().code() != StatusCode::kChecksumMismatch) {
    return false;
  }
  if (cube->cube()->manifest().parity_group == 0) return false;
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.cube != cube) return true;  // stale observation: nothing to mark
  if (!ShardHealthServes(slot.health)) return true;
  if (slot.health != ShardHealth::kDegraded) {
    slot.health = ShardHealth::kDegraded;
    slot.since_us = SteadyNowUs();
  }
  slot.cause = cube->poison_status();
  return true;
}

bool ShardedCube::TryRepairShardInPlace(
    uint32_t shard, const std::shared_ptr<ServingCube>& cube) {
  if (cube->poison_status().code() != StatusCode::kChecksumMismatch) {
    return false;
  }
  if (cube->cube()->manifest().parity_group == 0) return false;
  Slot& slot = *slots_[shard];
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.cube != cube || !ShardHealthServes(slot.health)) return false;
    // DEGRADED while repairing, never QUARANTINED: the slot keeps its
    // serving state (buffered deltas stay put, approx-tolerant queries
    // degrade around the shard) and no quarantine is counted for a fault
    // parity can heal.
    if (slot.health != ShardHealth::kDegraded) {
      slot.health = ShardHealth::kDegraded;
      slot.since_us = SteadyNowUs();
    }
    slot.cause = cube->poison_status();
  }
  const Result<ScrubReport> report = cube->RepairNow();
  const bool healed = report.ok() && report.value().unrepairable.empty() &&
                      cube->health() != ShardHealth::kQuarantined;
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.cube != cube) return true;  // slot moved on underneath us
  if (!healed) return false;  // double fault etc.: caller escalates
  slot.health = cube->health();  // HEALTHY, or DEGRADED log backpressure
  slot.cause = Status::OK();
  slot.since_us = SteadyNowUs();
  slot.attempts = 0;
  ++slot.recoveries;  // re-admitted in place
  return true;
}

ShardedCube::Admission ShardedCube::AdmitLocked(const Slot& slot,
                                                OperationContext* ctx,
                                                uint64_t cells) const {
  if (ShardHealthServes(slot.health) && slot.cube != nullptr) {
    return Admission::kServe;
  }
  // Bounded parking — but only when a supervisor is actually running to
  // drain the queue on re-admit, and never under an armed deadline (the
  // caller asked for bounded latency, so fail fast instead).
  if ((slot.health == ShardHealth::kQuarantined ||
       slot.health == ShardHealth::kRecovering) &&
      SupervisorRunning() && !(ctx != nullptr && ctx->has_deadline()) &&
      slot.parked.size() + cells <= options_.max_parked_writes) {
    return Admission::kPark;
  }
  return Admission::kRefuse;
}

Status ShardedCube::RefusePoisoned(uint32_t shard,
                                   const std::shared_ptr<ServingCube>& cube,
                                   const Status& status) {
  // Inline detection: mark the slot immediately instead of waiting for the
  // next supervisor poll. Parity-repairable corruption only DEGRADEs the
  // slot — the supervisor heals the cube in place and the buffered deltas
  // survive — so the raw checksum status goes back to the caller.
  if (MarkRepairing(shard, cube)) return status;
  // Everything else quarantines so follow-up writes park right away — and
  // reports the same kUnavailable a non-serving slot answers with (the raw
  // poison status, kInternal or worse, rides along as the cause).
  NoteQuarantined(shard, cube);
  const Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (!ShardHealthServes(slot.health)) return UnavailableLocked(shard, slot);
  // Stale race: the supervisor already healed the slot past this cube.
  return Status::Unavailable("shard " + std::to_string(shard) +
                             " was quarantined mid-request; retry");
}

Status ShardedCube::AddToShard(uint32_t shard,
                               std::span<const uint64_t> local, double delta,
                               OperationContext* ctx, bool durable_ack,
                               uint64_t* seq_out,
                               std::shared_ptr<ServingCube>* cube_out) {
  Slot& slot = *slots_[shard];
  std::shared_ptr<ServingCube> cube;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    switch (AdmitLocked(slot, ctx, 1)) {
      case Admission::kServe:
        cube = slot.cube;
        // Pre-charge the unapplied-delta mass before the delta can become
        // visible: the degraded bound must never under-count (a failed Add
        // leaves a harmless overestimate).
        slot.pending_abs += std::abs(delta);
        break;
      case Admission::kPark:
        slot.parked.push_back(
            ParkedWrite{{local.begin(), local.end()}, delta});
        ++slot.parked_total;
        slot.pending_abs += std::abs(delta);
        return Status::OK();
      case Admission::kRefuse:
        return UnavailableLocked(shard, slot);
    }
  }
  const Status status =
      durable_ack ? cube->Add(local, delta, ctx)
                  : cube->AddBuffered(local, delta, ctx, seq_out);
  if (!status.ok() && cube->health() == ShardHealth::kQuarantined) {
    return RefusePoisoned(shard, cube, status);
  }
  if (status.ok() && cube_out != nullptr) *cube_out = std::move(cube);
  return status;
}

Status ShardedCube::AdmitBox(const ShardRange& part, OperationContext* ctx) {
  uint64_t cells = 1;
  for (size_t d = 0; d < part.lo.size(); ++d) {
    cells *= part.hi[d] - part.lo[d] + 1;
  }
  Slot& slot = *slots_[part.shard];
  std::shared_ptr<ServingCube> cube;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    switch (AdmitLocked(slot, ctx, cells)) {
      case Admission::kServe:
        cube = slot.cube;
        break;
      case Admission::kPark:
        return Status::OK();
      case Admission::kRefuse:
        return UnavailableLocked(part.shard, slot);
    }
  }
  // A cube that poisoned itself does not serve, whatever its slot says.
  if (cube->health() != ShardHealth::kQuarantined) return Status::OK();
  return RefusePoisoned(part.shard, cube, cube->poison_status());
}

Status ShardedCube::Add(std::span<const uint64_t> coords, double delta,
                        OperationContext* ctx) {
  SS_ASSIGN_OR_RETURN(const uint32_t shard, router_.RoutePoint(coords));
  return AddToShard(shard, router_.ToLocal(coords, shard), delta, ctx,
                    /*durable_ack=*/true, nullptr);
}

Status ShardedCube::Update(const Tensor& deltas,
                           std::span<const uint64_t> origin,
                           OperationContext* ctx) {
  const TensorShape& shape = deltas.shape();
  if (origin.size() != shape.ndim() ||
      shape.ndim() != router_.log_dims().size()) {
    return Status::InvalidArgument("origin/deltas dimensionality mismatch");
  }
  std::vector<uint64_t> hi(origin.begin(), origin.end());
  for (uint32_t d = 0; d < shape.ndim(); ++d) hi[d] += shape.dim(d) - 1;
  // Validates the box against the global domain, and admits every shard it
  // touches before any cell is buffered: a refused box leaves nothing
  // applied, so the caller may retry it whole.
  SS_ASSIGN_OR_RETURN(const std::vector<ShardRange> parts,
                      router_.DecomposeRange(origin, hi));
  for (const ShardRange& part : parts) {
    SS_RETURN_IF_ERROR(AdmitBox(part, ctx));
  }
  // The clipped sub-boxes need not have power-of-two extents, so cells are
  // buffered individually (in global row-major order, which keeps each
  // shard's relative order) with one group ack per touched shard. Cells
  // owned by an unhealthy shard park through the same path as Add; parked
  // cells need no ack.
  std::vector<uint64_t> last_seq(slots_.size(), 0);
  std::vector<std::shared_ptr<ServingCube>> acked(slots_.size());
  std::vector<uint64_t> coords(shape.ndim(), 0);
  std::vector<uint64_t> absolute(shape.ndim(), 0);
  do {
    for (uint32_t d = 0; d < shape.ndim(); ++d) {
      absolute[d] = origin[d] + coords[d];
    }
    const uint32_t shard = router_.ShardOf(absolute);
    SS_RETURN_IF_ERROR(AddToShard(shard, router_.ToLocal(absolute, shard),
                                  deltas.At(coords), ctx,
                                  /*durable_ack=*/false, &last_seq[shard],
                                  &acked[shard]));
  } while (shape.Next(coords));
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    // Ack on the exact cube instance that issued the sequence numbers.
    if (acked[s] != nullptr) {
      SS_RETURN_IF_ERROR(acked[s]->SyncAcks(last_seq[s]));
    }
  }
  return Status::OK();
}

Result<double> ShardedCube::PointQuery(std::span<const uint64_t> point,
                                       bool use_scaling_slots,
                                       OperationContext* ctx) {
  return ExactValue(PointQuery(
      point, QueryOptions{.use_scaling_slots = use_scaling_slots,
                          .context = ctx}));
}

Result<double> ShardedCube::RangeSum(std::span<const uint64_t> lo,
                                     std::span<const uint64_t> hi,
                                     OperationContext* ctx) {
  return ExactValue(RangeSum(lo, hi, QueryOptions{.context = ctx}));
}

double ShardedCube::ShardSkipBound(uint32_t shard,
                                   std::span<const uint64_t> lo,
                                   std::span<const uint64_t> hi) const {
  // Cauchy–Schwarz over the shard's whole coefficient set: the part answer
  // is <w, c> over the Lemma-2 term set, so |answer| <= ||w||·||c||. The
  // weight norm factors per dimension (the term set is a product set);
  // ||c|| is bounded by the slot's tracked energy ceiling, and deltas
  // accepted after that refresh are covered by their absolute mass.
  const std::vector<uint32_t>& dims = router_.shard_log_dims();
  double weight_sq = 1.0;
  for (uint32_t d = 0; d < dims.size(); ++d) {
    weight_sq *= RangeWeightNormSquared(dims[d], lo[d], hi[d], norm_);
  }
  const Slot& slot = *slots_[shard];
  double ceiling;
  double pending;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    ceiling = slot.energy_ceiling;
    pending = slot.pending_abs;
  }
  return std::sqrt(weight_sq) * ceiling + pending;
}

template <typename Query>
Status ShardedCube::QueryShard(uint32_t shard, std::span<const uint64_t> lo,
                               std::span<const uint64_t> hi,
                               const QueryOptions& options, const Query& query,
                               DegradedResult* out) {
  Status why;
  if (const std::shared_ptr<ServingCube> cube = AcquireServing(shard, &why)) {
    // The shard's own evaluator absorbs every degradable block failure; the
    // caller's max_error is checked once, on the total.
    QueryOptions shard_options = options;
    shard_options.max_error =
        options.approx_ok() ? std::numeric_limits<double>::infinity() : 0.0;
    const Result<DegradedResult> part = query(*cube, shard_options);
    if (part.ok()) {
      out->value += part->value;
      out->error_bound += part->error_bound;
      out->blocks_missing += part->blocks_missing;
      if (out->reason == DegradedReason::kNone) out->reason = part->reason;
      return Status::OK();
    }
    // Any other failure of a serving shard is the caller's to see; only a
    // shard that poisoned itself during the query is skipped whole.
    if (cube->health() != ShardHealth::kQuarantined) return part.status();
    why = RefusePoisoned(shard, cube, part.status());
  }
  if (!options.approx_ok()) return why;  // exact mode: fail fast, no stall
  out->error_bound += ShardSkipBound(shard, lo, hi);
  out->blocks_missing += blocks_per_shard_;
  out->shards_missing.push_back(shard);
  if (out->reason == DegradedReason::kNone) {
    out->reason = DegradedReason::kShardUnavailable;
  }
  return Status::OK();
}

Result<DegradedResult> ShardedCube::RangeSum(std::span<const uint64_t> lo,
                                             std::span<const uint64_t> hi,
                                             const QueryOptions& options) {
  SS_ASSIGN_OR_RETURN(std::vector<ShardRange> parts,
                      router_.DecomposeRange(lo, hi));
  DegradedResult out;
  for (const ShardRange& part : parts) {
    SS_RETURN_IF_ERROR(QueryShard(
        part.shard, part.lo, part.hi, options,
        [&](ServingCube& cube, const QueryOptions& q) {
          return cube.RangeSum(part.lo, part.hi, q);
        },
        &out));
  }
  SS_RETURN_IF_ERROR(CheckErrorBound(out, options, "range sum"));
  return out;
}

Result<DegradedResult> ShardedCube::PointQuery(
    std::span<const uint64_t> point, const QueryOptions& options) {
  SS_ASSIGN_OR_RETURN(const uint32_t shard, router_.RoutePoint(point));
  const std::vector<uint64_t> local = router_.ToLocal(point, shard);
  DegradedResult out;
  // A single-cell box range sum equals the point value, so a skipped
  // shard's range bound applies verbatim with lo = hi = the point.
  SS_RETURN_IF_ERROR(QueryShard(
      shard, local, local, options,
      [&](ServingCube& cube, const QueryOptions& q) {
        return cube.PointQuery(local, q);
      },
      &out));
  SS_RETURN_IF_ERROR(CheckErrorBound(out, options, "point query"));
  return out;
}

void ShardedCube::SuperviseShard(uint32_t shard, uint64_t now_us,
                                 uint64_t* jitter_state) {
  Slot& slot = *slots_[shard];
  std::shared_ptr<ServingCube> cube;
  ShardHealth health;
  double precharge_snapshot = 0.0;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    health = slot.health;
    cube = slot.cube;
    precharge_snapshot = slot.pending_abs;
  }
  if (ShardHealthServes(health) && cube != nullptr) {
    const ShardHealth observed = cube->health();
    if (observed == ShardHealth::kQuarantined) {
      // Parity first: checksum poison on a parity-protected store is
      // repaired in place (scrub + rebuild from group parity + resume the
      // interrupted drain) with the slot merely DEGRADED — no teardown, no
      // buffered-delta loss, no quarantine counted. Only an unrepairable
      // double fault falls through to the full rebuild below.
      if (TryRepairShardInPlace(shard, cube)) return;
      NoteQuarantined(shard, cube);
      // Fall through to the recovery check: the first attempt is due
      // immediately.
    } else {
      // Mirror the cube's own DEGRADED bit (delta-log backpressure) into
      // the slot so shard_health/stats expose it.
      {
        std::lock_guard<std::mutex> lock(slot.mu);
        if (slot.cube == cube && ShardHealthServes(slot.health) &&
            slot.health != observed) {
          slot.health = observed;
          slot.since_us = now_us;
          slot.cause = Status::OK();
        }
      }
      if (options_.track_energy) {
        // Drained-refresh protocol (safe under concurrent writers): the
        // pre-charge snapshot was taken before the drained check, so
        // every delta it covers is in the energy index by the time the
        // ceiling is read — subtracting the snapshot can never
        // under-count, and deltas racing in after the snapshot keep
        // their own charge.
        const ServingStats stats = cube->stats();
        if (stats.applied_seq == stats.last_seq) {
          const double ceiling = cube->cube()->store()->TotalEnergyCeiling();
          std::lock_guard<std::mutex> lock(slot.mu);
          if (slot.cube == cube && ShardHealthServes(slot.health)) {
            slot.energy_ceiling = ceiling;
            slot.pending_abs =
                std::max(0.0, slot.pending_abs - precharge_snapshot);
          }
        }
      }
      return;
    }
  }
  uint64_t next_attempt;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.health != ShardHealth::kQuarantined) return;
    next_attempt = slot.next_attempt_us;
  }
  if (now_us < next_attempt) return;
  (void)TryRecoverShard(shard, jitter_state);  // failure reschedules itself
}

Status ShardedCube::TryRecoverShard(uint32_t shard, uint64_t* jitter_state) {
  Slot& slot = *slots_[shard];
  std::shared_ptr<ServingCube> old;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.health != ShardHealth::kQuarantined) {
      return Status::Unavailable("shard " + std::to_string(shard) +
                                 " is not quarantined");
    }
    slot.health = ShardHealth::kRecovering;
    slot.since_us = SteadyNowUs();
    ++slot.attempts;
    ++slot.recovery_attempts_total;
    old = std::move(slot.cube);
    slot.cube = nullptr;
  }
  // Teardown without flushing: drop every dirty page so nothing of the
  // failed cube's half-applied state reaches disk; the journal and delta
  // log stay put for the reopen below to replay.
  if (old != nullptr) {
    (void)old->Abandon();
    old.reset();
  }

  const Status attempt = [&]() -> Status {
    SS_ASSIGN_OR_RETURN(
        std::unique_ptr<ServingCube> reopened,
        ServingCube::OpenOnDisk(ShardDirPath(shard),
                                options_.pool_blocks_per_shard,
                                options_.serving));
    if (reopened->cube()->log_dims() != router_.shard_log_dims()) {
      return Status::Internal(
          "recovered shard does not match the shard set's sub-domain");
    }
    // Converge the applied watermark before re-admission: every
    // acknowledged delta the crash left in the log must be applied (and
    // verified applied) so the re-admitted shard answers exactly.
    SS_RETURN_IF_ERROR(reopened->DrainAll());
    const ServingStats drained = reopened->stats();
    if (drained.applied_seq != drained.last_seq) {
      return Status::Internal(
          "recovered shard watermark did not converge (applied " +
          std::to_string(drained.applied_seq) + " of " +
          std::to_string(drained.last_seq) + ")");
    }
    double ceiling = std::numeric_limits<double>::infinity();
    if (options_.track_energy) {
      SS_RETURN_IF_ERROR(reopened->cube()->store()->EnableEnergyTracking());
      ceiling = reopened->cube()->store()->TotalEnergyCeiling();
    }
    // Replay writes parked while the shard was down, then re-admit in the
    // same critical section that observes the queue empty — a write
    // parking concurrently either lands in the queue before the swap (and
    // is replayed here) or finds a serving slot.
    std::shared_ptr<ServingCube> fresh(std::move(reopened));
    double replayed_abs = 0.0;
    for (;;) {
      std::deque<ParkedWrite> batch;
      {
        std::lock_guard<std::mutex> lock(slot.mu);
        if (slot.parked.empty()) {
          slot.cube = fresh;
          slot.health = ShardHealth::kHealthy;
          slot.cause = Status::OK();
          slot.since_us = SteadyNowUs();
          slot.attempts = 0;
          slot.next_attempt_us = 0;
          ++slot.recoveries;
          slot.energy_ceiling = ceiling;
          // Replayed parked deltas are buffered but not yet drained on
          // the fresh cube; their mass stays charged until the next
          // refresh.
          slot.pending_abs = replayed_abs;
          return Status::OK();
        }
        batch.swap(slot.parked);
      }
      uint64_t last_seq = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        const Status added = fresh->AddBuffered(batch[i].local,
                                                batch[i].delta, nullptr,
                                                &last_seq);
        if (!added.ok()) {
          // Put the unapplied tail back in order; the next attempt (or a
          // FAILED transition) owns it again.
          std::lock_guard<std::mutex> lock(slot.mu);
          slot.parked.insert(slot.parked.begin(), batch.begin() + i,
                             batch.end());
          return added;
        }
        replayed_abs += std::abs(batch[i].delta);
      }
      SS_RETURN_IF_ERROR(fresh->SyncAcks(last_seq));
    }
  }();
  if (attempt.ok()) return attempt;

  std::lock_guard<std::mutex> lock(slot.mu);
  // Keep the incident's first error as the cause; the attempt error fills
  // in only if the incident somehow had none.
  if (slot.cause.ok()) slot.cause = attempt;
  slot.since_us = SteadyNowUs();
  if (slot.attempts >= options_.max_recovery_attempts) {
    slot.health = ShardHealth::kFailed;
    slot.parked_dropped += slot.parked.size();
    slot.parked.clear();
    slot.pending_abs = 0.0;
    slot.energy_ceiling = std::numeric_limits<double>::infinity();
  } else {
    slot.health = ShardHealth::kQuarantined;
    slot.next_attempt_us =
        slot.since_us + BackoffDelayUs(options_.recovery_backoff,
                                       slot.attempts - 1, jitter_state);
  }
  return attempt;
}

Status ShardedCube::RecoverShardNow(uint32_t shard) {
  if (shard >= slots_.size()) {
    return Status::InvalidArgument("no such shard");
  }
  Slot& slot = *slots_[shard];
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.health == ShardHealth::kFailed) {
      return UnavailableLocked(shard, slot);
    }
    if (slot.health == ShardHealth::kRecovering) {
      return Status::Unavailable("shard " + std::to_string(shard) +
                                 " recovery already in progress");
    }
    if (ShardHealthServes(slot.health)) {
      // Detect a silently-poisoned cube inline (no supervisor running):
      // the explicit recovery call is the supervisor of last resort.
      if (slot.cube != nullptr &&
          slot.cube->health() != ShardHealth::kQuarantined) {
        return Status::OK();  // genuinely serving: no-op
      }
      slot.health = ShardHealth::kQuarantined;
      slot.cause = slot.cube != nullptr
                       ? slot.cube->poison_status()
                       : Status::Unavailable("shard torn down");
      slot.since_us = SteadyNowUs();
      slot.attempts = 0;
      ++slot.quarantines;
    }
  }
  uint64_t jitter_state =
      options_.supervisor_jitter_seed ^
      (uint64_t{0x9e3779b97f4a7c15ull} * (uint64_t{shard} + 1));
  return TryRecoverShard(shard, &jitter_state);
}

Status ShardedCube::DrainAll() {
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    Status why;
    const std::shared_ptr<ServingCube> cube = AcquireServing(s, &why);
    if (cube == nullptr) return why;
    SS_RETURN_IF_ERROR(cube->DrainAll());
  }
  return Status::OK();
}

Result<ScrubReport> ShardedCube::ScrubAll() {
  ScrubReport total;
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    Status why;
    const std::shared_ptr<ServingCube> cube = AcquireServing(s, &why);
    if (cube == nullptr) return why;
    SS_ASSIGN_OR_RETURN(const ScrubReport report, cube->RepairNow());
    total.repaired.insert(total.repaired.end(), report.repaired.begin(),
                          report.repaired.end());
    total.unrepairable.insert(total.unrepairable.end(),
                              report.unrepairable.begin(),
                              report.unrepairable.end());
  }
  return total;
}

Status ShardedCube::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (supervisor_ != nullptr) supervisor_->Stop();
  Status first;
  for (auto& slot : slots_) {
    std::shared_ptr<ServingCube> cube;
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      cube = slot->cube;
    }
    if (cube == nullptr) continue;
    const Status status = cube->Close();
    if (first.ok() && !status.ok()) first = status;
  }
  return first;
}

void ShardedCube::StartWorkers() {
  for (auto& slot : slots_) {
    std::shared_ptr<ServingCube> cube;
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      cube = slot->cube;
    }
    if (cube != nullptr) cube->StartWorkers();
  }
  if (supervisor_ != nullptr) supervisor_->Start();
}

void ShardedCube::StopWorkers() {
  // Supervisor first: a recovery in flight finishes, then nothing swaps
  // cubes underneath the per-shard stops.
  if (supervisor_ != nullptr) supervisor_->Stop();
  for (auto& slot : slots_) {
    std::shared_ptr<ServingCube> cube;
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      cube = slot->cube;
    }
    if (cube != nullptr) cube->StopWorkers();
  }
}

ServingStats ShardedCube::stats() const {
  ServingStats out;
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    const ServingStats shard = shard_stats(s);
    // Worst shard health wins; the incident fields describe the first
    // poisoned shard (deterministic: lowest shard index).
    const bool first_incident = shard.poison_code != StatusCode::kOk &&
                                out.poison_code == StatusCode::kOk;
    for (const ServingCounter& counter : kServingCounters) {
      uint64_t& total = out.*counter.member;
      const uint64_t value = shard.*counter.member;
      switch (counter.merge) {
        case CounterMerge::kSum:
          total += value;
          break;
        case CounterMerge::kMax:
          total = std::max(total, value);
          break;
        case CounterMerge::kIncident:
          if (first_incident) total = value;
          break;
      }
    }
    out.health = std::max(out.health, shard.health);
    if (first_incident) {
      out.poison_code = shard.poison_code;
      out.poison_message = shard.poison_message;
    }
  }
  return out;
}

ServingStats ShardedCube::shard_stats(uint32_t shard) const {
  const Slot& slot = *slots_[shard];
  std::shared_ptr<ServingCube> cube;
  ServingStats out;
  {
    std::lock_guard<std::mutex> lock(slot.mu);
    cube = slot.cube;
    out.health = slot.health;
    out.health_since_us = slot.since_us;
    out.quarantines = slot.quarantines;
    out.recovery_attempts = slot.recovery_attempts_total;
    out.recoveries = slot.recoveries;
    out.parked_writes = slot.parked_total;
    out.parked_dropped = slot.parked_dropped;
    out.pending_deltas = slot.parked.size();
    if (!slot.cause.ok()) {
      out.poison_code = slot.cause.code();
      out.poison_message = slot.cause.message();
      out.poisoned_at_us = slot.since_us;
    }
  }
  if (cube != nullptr) {
    ServingStats live = cube->stats();
    // The slot is the authority on health (it knows RECOVERING/FAILED and
    // the incident cause); everything else comes from the cube.
    live.health = out.health;
    live.health_since_us = out.health_since_us;
    live.quarantines = out.quarantines;
    live.recovery_attempts = out.recovery_attempts;
    live.recoveries = out.recoveries;
    live.parked_writes = out.parked_writes;
    live.parked_dropped = out.parked_dropped;
    live.pending_deltas += out.pending_deltas;
    if (out.poison_code != StatusCode::kOk) {
      live.poison_code = out.poison_code;
      live.poison_message = out.poison_message;
      live.poisoned_at_us = out.poisoned_at_us;
    }
    return live;
  }
  return out;
}

ShardedCube::ShardHealthInfo ShardedCube::shard_health(
    uint32_t shard) const {
  const Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mu);
  ShardHealthInfo info;
  info.health = slot.health;
  info.cause = slot.cause;
  info.since_us = slot.since_us;
  info.attempts = slot.attempts;
  info.quarantines = slot.quarantines;
  info.recoveries = slot.recoveries;
  info.parked = slot.parked.size();
  return info;
}

std::vector<uint64_t> ShardedCube::SnapshotSeqs() const {
  std::vector<uint64_t> seqs;
  seqs.reserve(slots_.size());
  for (const auto& slot : slots_) {
    std::shared_ptr<ServingCube> cube;
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      cube = slot->cube;
    }
    seqs.push_back(cube != nullptr ? cube->stats().last_seq : 0);
  }
  return seqs;
}

uint64_t ShardedCube::pending_deltas() const {
  uint64_t pending = 0;
  for (const auto& slot : slots_) {
    std::shared_ptr<ServingCube> cube;
    uint64_t parked;
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      cube = slot->cube;
      parked = slot->parked.size();
    }
    pending += parked + (cube != nullptr ? cube->pending_deltas() : 0);
  }
  return pending;
}

Status ShardedCube::CrashForTest() {
  if (supervisor_ != nullptr) supervisor_->Stop();
  Status first;
  for (auto& slot : slots_) {
    std::shared_ptr<ServingCube> cube;
    {
      std::lock_guard<std::mutex> lock(slot->mu);
      cube = slot->cube;
    }
    if (cube == nullptr) continue;
    const Status status = cube->CrashForTest();
    if (first.ok() && !status.ok()) first = status;
  }
  closed_ = true;
  return first;
}

}  // namespace shiftsplit
