// Appending scenario (paper §5.2 / §6.2): the PRECIPITATION cube receives a
// new month of daily measurements at a time. Appends are SHIFT-SPLIT chunk
// applies; when the time domain fills up, the store expands entirely in the
// wavelet domain (Figure 10) — watch the block I/O jump at expansions
// exactly like Figure 13.
//
// Build & run:  ./build/examples/precipitation_append

#include <cstdio>

#include "shiftsplit/core/appender.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/data/precipitation.h"

using namespace shiftsplit;

int main() {
  PrecipitationOptions data_options;  // 8 x 8 grid, 32-day months
  Appender::Options options;
  options.b = 2;
  options.pool_blocks = 256;

  // Start with one month of allocated time domain: 8 x 8 x 32.
  auto appender_r = Appender::Create({3, 3, 5}, /*append_dim=*/2, options);
  if (!appender_r.ok()) {
    std::fprintf(stderr, "%s\n", appender_r.status().ToString().c_str());
    return 1;
  }
  auto appender = std::move(appender_r).value();

  const uint64_t kMonths = 24;  // two years of monthly arrivals
  std::printf("month  filled  capacity  expansions  cumulative block I/O\n");
  for (uint64_t month = 0; month < kMonths; ++month) {
    Tensor slab = MakePrecipitationMonth(month, data_options);
    if (auto s = appender->Append(slab); !s.ok()) {
      std::fprintf(stderr, "append failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const IoStats io = appender->total_io();
    std::printf("%5llu  %6llu  %8llu  %10llu  %llu\n",
                static_cast<unsigned long long>(month + 1),
                static_cast<unsigned long long>(appender->filled()),
                static_cast<unsigned long long>(appender->capacity()),
                static_cast<unsigned long long>(appender->expansions()),
                static_cast<unsigned long long>(io.total_blocks()));
  }

  // The transform stays queryable throughout: total rainfall at cell (2,3)
  // over the first year, straight from the wavelet domain.
  std::vector<uint64_t> lo{2, 3, 0}, hi{2, 3, 12 * 32 - 1};
  auto sum = RangeSumStandard(appender->store(), appender->log_dims(), lo, hi,
                              QueryOptions{});
  if (!sum.ok()) return 1;
  double check = 0;
  for (uint64_t month = 0; month < 12; ++month) {
    Tensor slab = MakePrecipitationMonth(month, data_options);
    for (uint64_t day = 0; day < 32; ++day) {
      std::vector<uint64_t> c{2, 3, day};
      check += slab.At(c);
    }
  }
  std::printf("\nyear-1 rainfall at grid (2,3): %.2f mm (direct sum: %.2f "
              "mm)\n",
              sum->value, check);
  return 0;
}
