// Fuzz harness for the FTL parser + evaluator, libFuzzer entry-point
// style: the input bytes are an FTL query source string. Everything that
// parses is evaluated by the interval evaluator three times — twice
// through one evaluation context (the second run takes every subformula
// from the context) and once with a fresh one — and by the per-state
// reference evaluator (NaiveFtlEvaluator, the paper's Section 3.3
// semantics); all must agree on the status code and, when they succeed,
// on the relation byte for byte. An input both answer is evaluated once
// more with its first FROM variable restricted, twice: with a fresh
// context (scoped snapshots and the restricted kernels) and through the
// context the unrestricted evaluation filled (restricted subformulas cut
// from shared unrestricted relations). Both must equal the unrestricted
// relation filtered. Any divergence or crash/sanitizer report is a
// finding.
//
// This toolchain has no -fsanitize=fuzzer driver (gcc), so the harness
// always compiles with a standalone replay main(): it runs every corpus
// file/directory passed on the command line, then a bounded deterministic
// mutation loop (--mutate N, seeded by MOST_TEST_SEED or 1) over the
// corpus. ci.sh runs exactly that as the fuzz smoke stage under ASan.
// With a clang libFuzzer toolchain, define MOST_FUZZ_HAVE_LIBFUZZER to
// drop the main() and link -fsanitize=fuzzer instead.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/object_model.h"
#include "ftl/eval.h"
#include "ftl/naive_eval.h"
#include "ftl/parser.h"
#include "geometry/polygon.h"

namespace {

using namespace most;

// One deterministic world shared by every input: a spatial class M (with a
// FUEL attribute so assignment/compare formulas bind), a second class N,
// an empty spatial class E (so the evaluators also meet an empty domain),
// and four regions with the names the seed corpus uses. Coordinates are
// grid-snapped (so the oracle sees predicate flips at exactly the ticks
// the interval solver computes); motions include stationary and linear
// routes.
MostDatabase* World() {
  static MostDatabase* db = [] {
    auto* d = new MostDatabase();
    (void)d->CreateClass("M", {{"FUEL", true, ValueType::kNull}}, true);
    (void)d->CreateClass("N", {}, true);
    (void)d->CreateClass("E", {}, true);
    (void)d->DefineRegion("R1", Polygon::Rectangle({-10, -10}, {5, 5}));
    (void)d->DefineRegion("R2", Polygon::Rectangle({0, 0}, {15, 12}));
    (void)d->DefineRegion("P", Polygon::Rectangle({2, 2}, {8, 8}));
    (void)d->DefineRegion("Q", *Polygon::Create({{0, 0}, {6, 0}, {3, 6}}));
    const double pos[5][2] = {{-4, -4}, {0, 0}, {3, 3}, {12, 1}, {-8, 6}};
    const double vel[5][2] = {{1, 0.5}, {0, 0}, {-0.5, 0.25}, {-1, 1}, {0.5, 0}};
    for (int i = 0; i < 5; ++i) {
      auto obj = d->CreateObject("M");
      if (!obj.ok()) std::abort();
      ObjectId id = (*obj)->id();
      (void)d->SetMotion("M", id, {pos[i][0], pos[i][1]},
                         {vel[i][0], vel[i][1]});
      (void)d->UpdateDynamic("M", id, "FUEL", 50.0 + 5.0 * i,
                             TimeFunction::Linear(-0.25 * i));
    }
    for (int i = 0; i < 2; ++i) {
      auto obj = d->CreateObject("N");
      if (!obj.ok()) std::abort();
      (void)d->SetMotion("N", (*obj)->id(), {2.0 * i, -1.0 * i}, {0.25, 0.5});
    }
    return d;
  }();
  return db;
}

// Inputs that parsed, and those both evaluators answered with a relation
// (the rest agreed on an error status).
size_t g_parsed = 0;
size_t g_both_ok = 0;

void DieOnDivergence(const char* what, const std::string& query_text) {
  std::fprintf(stderr, "oracle divergence (%s) on input:\n%s\n", what,
               query_text.c_str());
  std::abort();
}

// Restriction property: FTL relations are pointwise in their bindings, so
// restricting the first FROM variable to an id set gives exactly the
// unrestricted (unprojected) relation filtered to the rows whose binding
// for that variable lies in the set. The set is seeded by the input and
// always holds an id of another class and an id no object has, both of
// which the evaluator's scoped snapshot must skip. The restricted query is
// evaluated fresh, which builds its own scoped snapshots and runs the
// restricted kernels, and through the unrestricted run's context, which
// cuts its subformulas from the stored unrestricted relations.
void CheckRestriction(const MostDatabase& db, const FtlQuery& query,
                      Interval window, const std::string& text) {
  if (query.from.empty()) return;
  const FromBinding& first = query.from.front();
  uint64_t seed = 1469598103934665603ull;  // FNV-1a over the input.
  for (unsigned char c : text) {
    seed ^= c;
    seed *= 1099511628211ull;
  }
  auto ids = std::make_shared<std::set<ObjectId>>();
  ObjectId foreign = kInvalidObjectId;
  for (const auto& [name, cls] : db.classes()) {
    for (const auto& [id, obj] : cls.objects()) {
      if ((seed >> (id % 64)) & 1) ids->insert(id);
      if (name != first.class_name) foreign = id;
    }
  }
  if (foreign == kInvalidObjectId) std::abort();  // World has two classes.
  ids->insert(foreign);
  ids->insert(ObjectId{1} << 20);  // Absent.

  EvalContext context;
  FtlEvaluator whole(db, {}, &context);
  auto want = whole.EvaluateQueryUnprojected(query, window);
  FtlEvaluator::Options opts;
  opts.domain_restrictions[first.var] = ids;
  FtlEvaluator restricted(db, opts);
  auto got = restricted.EvaluateQueryUnprojected(query, window);
  FtlEvaluator borrower(db, opts, &context);
  auto cut = borrower.EvaluateQueryUnprojected(query, window);
  if (!want.ok() || !got.ok() || !cut.ok()) {
    DieOnDivergence("restricted status", text);
  }
  const size_t col =
      std::find(want->vars.begin(), want->vars.end(), first.var) -
      want->vars.begin();
  if (col == want->vars.size() || got->vars != want->vars ||
      cut->vars != want->vars) {
    DieOnDivergence("restricted vars", text);
  }
  std::map<std::vector<ObjectId>, IntervalSet> filtered;
  for (const auto& [binding, when] : want->rows) {
    if (ids->count(binding[col]) > 0) filtered.emplace(binding, when);
  }
  if (got->rows != filtered) DieOnDivergence("restricted rows", text);
  if (cut->rows != filtered) DieOnDivergence("shared restricted rows", text);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0 || size > 2048) return 0;
  std::string text(reinterpret_cast<const char*>(data), size);
  auto query = ParseQuery(text);
  if (!query.ok()) return 0;  // Parse rejection is fine; crashes are not.
  ++g_parsed;

  MostDatabase* db = World();
  const Interval window(0, 24);

  FtlEvaluator fast(*db);
  auto fast_rel = fast.EvaluateQuery(*query, window);
  const FtlEvalStats first_run = fast.stats();
  auto again = fast.EvaluateQuery(*query, window);
  FtlEvaluator fresh(*db);
  auto fresh_rel = fresh.EvaluateQuery(*query, window);
  NaiveFtlEvaluator naive(*db);
  auto naive_rel = naive.EvaluateQuery(*query, window);

  for (const auto* other : {&again, &fresh_rel}) {
    if (other->ok() != fast_rel.ok()) DieOnDivergence("context status", text);
    if (!fast_rel.ok()) {
      if (other->status().code() != fast_rel.status().code()) {
        DieOnDivergence("context status code", text);
      }
    } else if ((*other)->vars != fast_rel->vars ||
               (*other)->rows != fast_rel->rows) {
      DieOnDivergence("context rows", text);
    }
  }
  if (fast_rel.ok()) {
    // The second run borrows every snapshot, and below a composite root
    // every relation, so it solves no atom.
    const FtlEvalStats& s = fast.stats();
    if (s.snapshot_builds != first_run.snapshot_builds) {
      DieOnDivergence("second run built a snapshot", text);
    }
    if (!query->where->children().empty() &&
        s.atomic_evaluations != first_run.atomic_evaluations) {
      DieOnDivergence("second run solved an atom", text);
    }
  }

  if (fast_rel.ok() != naive_rel.ok()) DieOnDivergence("status", text);
  if (fast_rel.ok()) {
    if (fast_rel->vars != naive_rel->vars) DieOnDivergence("vars", text);
    if (fast_rel->rows != naive_rel->rows) DieOnDivergence("rows", text);
    CheckRestriction(*db, *query, window, text);
    ++g_both_ok;
  } else if (fast_rel.status().code() != naive_rel.status().code()) {
    DieOnDivergence("status code", text);
  }
  return 0;
}

#ifndef MOST_FUZZ_HAVE_LIBFUZZER

namespace {

std::vector<std::string> CollectInputs(int argc, char** argv,
                                       size_t* mutations) {
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mutate") == 0 && i + 1 < argc) {
      *mutations = std::strtoull(argv[++i], nullptr, 10);
      continue;
    }
    std::filesystem::path p(argv[i]);
    if (std::filesystem::is_directory(p)) {
      for (const auto& e : std::filesystem::directory_iterator(p)) {
        if (e.is_regular_file()) files.push_back(e.path().string());
      }
    } else {
      files.push_back(p.string());
    }
  }
  std::sort(files.begin(), files.end());  // Deterministic replay order.
  return files;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace

// Standalone driver: replay corpus inputs, then a bounded deterministic
// mutation loop. Exits non-zero on harness misuse or when no input reached
// the row comparison; divergences abort.
int main(int argc, char** argv) {
  size_t mutations = 0;
  std::vector<std::string> files = CollectInputs(argc, argv, &mutations);
  if (files.empty() && mutations == 0) {
    std::fprintf(stderr,
                 "usage: %s [--mutate N] <corpus file or dir>...\n",
                 argv[0]);
    return 2;
  }

  std::vector<std::string> corpus;
  for (const std::string& f : files) {
    corpus.push_back(ReadFile(f));
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const uint8_t*>(corpus.back().data()),
        corpus.back().size());
  }
  std::printf("replayed %zu corpus inputs\n", corpus.size());

  if (mutations > 0 && !corpus.empty()) {
    uint64_t seed = 1;
    if (const char* env = std::getenv("MOST_TEST_SEED")) {
      seed = std::strtoull(env, nullptr, 10);
    }
    // xorshift needs a non-zero state; 2*seed+1 is odd and injective, so
    // every seed replays its own mutation stream.
    uint64_t state = 2 * seed + 1;
    std::printf("mutation loop: %zu rounds, seed=%llu\n", mutations,
                static_cast<unsigned long long>(seed));
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    for (size_t i = 0; i < mutations; ++i) {
      std::string input = corpus[next() % corpus.size()];
      switch (next() % 4) {
        case 0:  // Flip a byte.
          if (!input.empty()) {
            input[next() % input.size()] ^= static_cast<char>(next() & 0xFF);
          }
          break;
        case 1:  // Truncate.
          if (!input.empty()) input.resize(next() % input.size());
          break;
        case 2:  // Splice two corpus entries.
          if (!input.empty()) {
            const std::string& other = corpus[next() % corpus.size()];
            input = input.substr(0, next() % input.size()) + other;
          }
          break;
        default:  // Insert a token-ish fragment.
          static const char* kFragments[] = {
              " AND ", " OR ", " NOT ", " UNTIL ", " EVENTUALLY ",
              " ALWAYS FOR 3 ", " WITHIN ", " DIST(o, n) ", " INSIDE(o, P) ",
              "(", ")", " 999999999999 ", " -1 ", "\x00\xff"};
          size_t at = input.empty() ? 0 : next() % input.size();
          input.insert(at, kFragments[next() % std::size(kFragments)]);
      }
      LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(input.data()),
                             input.size());
    }
    std::printf("mutation loop done\n");
  }
  std::printf("%zu inputs parsed, %zu answered by both evaluators\n",
              g_parsed, g_both_ok);
  if (g_both_ok == 0) {
    std::fprintf(stderr, "no input reached the row comparison\n");
    return 1;
  }
  return 0;
}

#endif  // MOST_FUZZ_HAVE_LIBFUZZER
