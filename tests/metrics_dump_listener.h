#ifndef MOST_TESTS_METRICS_DUMP_LISTENER_H_
#define MOST_TESTS_METRICS_DUMP_LISTENER_H_

// Optional end-of-run metrics dump for the fault simulation: set
// MOST_DUMP_METRICS=1 and the binary prints the full engine metrics
// snapshot (obs::DumpMetrics) after the last test — failpoint firings,
// WAL/salvage counters, network fault counts and all. Include this header
// once per test binary; the listener registers itself at static-init time.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>

#include "obs/exporters.h"

namespace most::testing_support {

class MetricsDumpListener : public ::testing::EmptyTestEventListener {
 public:
  void OnTestProgramEnd(const ::testing::UnitTest&) override {
    if (std::getenv("MOST_DUMP_METRICS") == nullptr) return;
    obs::DumpMetrics(std::cerr);
  }
};

namespace {

const bool kMetricsDumpListenerRegistered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new MetricsDumpListener());
  return true;
}();

}  // namespace

}  // namespace most::testing_support

#endif  // MOST_TESTS_METRICS_DUMP_LISTENER_H_
