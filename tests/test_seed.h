#ifndef MOST_TESTS_TEST_SEED_H_
#define MOST_TESTS_TEST_SEED_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <vector>

namespace most::test {

/// True when MOST_TEST_SEED pins this run to a single seed. Corpus-size
/// assertions (">= N random cases") should be skipped in that mode — a
/// one-seed replay is deliberately smaller than the default sweep.
inline bool SeedOverridden() {
  return std::getenv("MOST_TEST_SEED") != nullptr;
}

/// Seeds for a randomized suite. Every randomized suite draws its
/// seeds through this helper so failures are reproducible from the log:
/// the seeds in effect are printed, and MOST_TEST_SEED=<n> replaces the
/// default sweep with exactly that one seed (the way to replay a logged
/// failure without recompiling).
inline std::vector<uint64_t> SuiteSeeds(
    const char* suite, std::initializer_list<uint64_t> defaults) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("MOST_TEST_SEED")) {
    // Strict: a typo must not silently replay some other seed (strtoull
    // alone reads "12abc" as 12 and "abc" as 0).
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(env, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(env[0])) || *end != '\0' ||
        errno == ERANGE) {
      std::fprintf(stderr,
                   "MOST_TEST_SEED must be a decimal seed, got '%s'\n", env);
      std::exit(2);
    }
    seeds.push_back(value);
    std::printf("[seeds] %s: MOST_TEST_SEED override -> %llu\n", suite,
                static_cast<unsigned long long>(seeds[0]));
  } else {
    seeds.assign(defaults);
    std::printf("[seeds] %s: MOST_TEST_SEED unset, defaults ->", suite);
    for (uint64_t s : seeds) {
      std::printf(" %llu", static_cast<unsigned long long>(s));
    }
    std::printf("\n");
  }
  std::fflush(stdout);
  return seeds;
}

/// Single-seed variant for suites parameterized by one base seed (e.g.
/// fault loops deriving per-iteration seeds as base + i).
inline uint64_t SuiteSeed(const char* suite, uint64_t default_seed) {
  return SuiteSeeds(suite, {default_seed})[0];
}

}  // namespace most::test

#endif  // MOST_TESTS_TEST_SEED_H_
