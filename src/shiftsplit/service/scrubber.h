// Background scrub-and-repair thread over one ServingCube: walks the
// device in small batches on a fixed cadence, verifying every block's
// checksum and rebuilding corrupt ones from group parity in place (via
// ServingCube::ScrubTick, with drains and queries excluded), so silent bit
// rot is found and healed before a query or drain ever trips over it.
//
//   Scrubber scrubber(serving.get(), {.interval = 100ms, .batch_blocks = 8});
//   ...
//   scrubber.Pause();    // e.g. while a bulk load saturates the store
//   scrubber.Resume();
//
// Its work shows in the cube's ServingStats (scrub_passes, scrubbed_blocks,
// scrub_repairs, parity_unrepairable).
//
// The scrubber is rate-limited twice over: it touches at most
// `batch_blocks` blocks per tick and sleeps `interval` between ticks, so
// its exclusive-latch holds stay short and bounded — queries see a brief
// writer-priority blip, never a full-pass stall. The cube must outlive
// the scrubber; Stop() (or destruction) joins the thread.

#ifndef SHIFTSPLIT_SERVICE_SCRUBBER_H_
#define SHIFTSPLIT_SERVICE_SCRUBBER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "shiftsplit/service/serving_cube.h"

namespace shiftsplit {

/// \brief Rate-limited, pausable background scrubber for one ServingCube.
class Scrubber {
 public:
  struct Options {
    /// Sleep between scrub batches (the rate limit's long edge).
    std::chrono::milliseconds interval{100};
    /// Blocks verified per batch (the exclusive-latch hold bound).
    uint64_t batch_blocks = 8;
    /// Spawn the thread immediately; with false, nothing runs until
    /// Start().
    bool start = true;
  };

  Scrubber(ServingCube* cube, const Options& options);
  ~Scrubber();
  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  void Start();
  /// \brief Stops and joins the thread. Idempotent; Start() may follow.
  void Stop();
  /// \brief Parks the thread after the tick in flight; ticks resume on
  /// Resume(). Cheap enough to bracket any latency-sensitive burst.
  void Pause();
  void Resume();
  bool paused() const;

 private:
  void Loop();

  ServingCube* const cube_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool paused_ = false;
  std::thread thread_;  ///< joinable while running
};

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_SERVICE_SCRUBBER_H_
