#include "shiftsplit/service/scrubber.h"

namespace shiftsplit {

Scrubber::Scrubber(ServingCube* cube, const Options& options)
    : cube_(cube), options_(options) {
  if (options_.start) Start();
}

Scrubber::~Scrubber() { Stop(); }

void Scrubber::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void Scrubber::Stop() {
  std::thread joined;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
    joined = std::move(thread_);
  }
  cv_.notify_all();
  joined.join();
}

void Scrubber::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Scrubber::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

bool Scrubber::paused() const {
  std::lock_guard<std::mutex> lock(mu_);
  return paused_;
}

void Scrubber::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      // One interval between ticks; a pause parks here indefinitely.
      cv_.wait_for(lock, options_.interval, [this] { return stop_; });
      while (paused_ && !stop_) cv_.wait(lock);
      if (stop_) return;
    }
    cube_->ScrubTick(options_.batch_blocks);
  }
}

}  // namespace shiftsplit
