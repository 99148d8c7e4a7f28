#ifndef MOST_TESTS_SCOPED_GOVERNOR_LIMITS_H_
#define MOST_TESTS_SCOPED_GOVERNOR_LIMITS_H_

#include "obs/governor.h"

namespace most::test {

/// Installs `limits` on the process-wide ResourceGovernor for the guard's
/// scope and restores the limits it found on exit. The governor is the
/// only place a governed limit (refresh budget, queue limit, cooldown,
/// delta dirty fraction, channel caps) can be set, so a test or bench that
/// needs one sets it here instead of on a component, and leaves nothing
/// behind for the next test in the binary. Changing the limits again
/// inside the scope (set_limits) is fine: the guard restores what it saw
/// at construction.
class ScopedGovernorLimits {
 public:
  explicit ScopedGovernorLimits(const ResourceGovernor::Limits& limits)
      : saved_(ResourceGovernor::Global().limits()) {
    ResourceGovernor::Global().set_limits(limits);
  }
  ~ScopedGovernorLimits() { ResourceGovernor::Global().set_limits(saved_); }

  ScopedGovernorLimits(const ScopedGovernorLimits&) = delete;
  ScopedGovernorLimits& operator=(const ScopedGovernorLimits&) = delete;

 private:
  ResourceGovernor::Limits saved_;
};

}  // namespace most::test

#endif  // MOST_TESTS_SCOPED_GOVERNOR_LIMITS_H_
