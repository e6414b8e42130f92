// KvPager invariants (DESIGN.md §14) over the shared trace generator, via
// the deterministic event -> allocator-op interpreter in pager_ops.hpp:
//   * isolation — no page is ever mapped by two live sequences,
//   * conservation — free + mapped == pool size after every op (preempt and
//     release cannot leak or double-count pages),
//   * release/realloc round-trip — freeing a sequence and re-growing the
//     same context takes the same number of pages, drawn lowest-index-first
//     from the then-free set, and restores the free count, and
//   * deterministic layout — replaying the same op sequence on a fresh
//     pager reproduces the exact page tables (what makes engine replay
//     byte-identical across --jobs shards).
//   * reference equivalence — the slot-vector/bitmap pager and the plain
//     map/set reference model (reference_pager.hpp) fed the same ops grant
//     the same pages, agree on every grow, and keep the same counts.
// The mutation check proves the suite's sensitivity: a pager whose
// preempt() forgets to clear the page table (broken_pager.hpp) is caught
// and shrunk to a tiny .fstrace counterexample.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/kv_pager.hpp"
#include "prop/broken_pager.hpp"
#include "prop/pager_ops.hpp"
#include "prop/reference_pager.hpp"
#include "prop/registry.hpp"
#include "prop/trace_gen.hpp"
#include "util/strings.hpp"

namespace faaspart::prop {
namespace {

// Isolation + conservation after every op on the real pager.
std::string pager_invariants_hold(const scenario::Trace& trace) {
  gpu::KvPager pager(pager_ops_config());
  return run_pager_ops(trace, pager);
}
const bool reg_invariants =
    register_trace_property("kv-pager-invariants", pager_invariants_hold);

// Release + realloc round-trip: retire a survivor, re-grow the same context,
// and the pager must hand back the same page count — the lowest-index pages
// free at that moment — leaving the free count where it started.
std::string pager_realloc_roundtrip(const scenario::Trace& trace) {
  gpu::KvPager pager(pager_ops_config());
  std::vector<gpu::KvSeqId> live;
  const std::string bad = run_pager_ops(trace, pager, &live);
  if (!bad.empty()) return bad;

  for (const gpu::KvSeqId id : live) {
    const int tokens = pager.tokens_of(id);
    if (tokens == 0) continue;  // preempted down to nothing; nothing to pin
    const std::vector<int> old_pages = pager.page_table(id);
    const int free_before = pager.free_pages();

    pager.release(id);
    if (pager.free_pages() !=
        free_before + static_cast<int>(old_pages.size())) {
      return util::strf("release returned ", pager.free_pages() - free_before,
                        " pages, sequence held ", old_pages.size());
    }
    // The free set is now fully determined by the live page tables.
    std::set<int> free_set;
    for (int p = 0; p < pager.total_pages(); ++p) free_set.insert(p);
    for (const auto other : pager.sequence_ids()) {
      for (const int p : pager.page_table(other)) free_set.erase(p);
    }

    const gpu::KvSeqId fresh = pager.create();
    if (!pager.grow(fresh, tokens)) {
      return util::strf("realloc of ", tokens,
                        " tokens refused right after freeing them");
    }
    const std::vector<int>& got = pager.page_table(fresh);
    if (got.size() != old_pages.size()) {
      return util::strf("realloc took ", got.size(), " pages, release freed ",
                        old_pages.size());
    }
    std::vector<int> want(free_set.begin(), free_set.end());
    want.resize(got.size());  // lowest-index-first hand-out
    std::vector<int> got_sorted = got;
    std::sort(got_sorted.begin(), got_sorted.end());
    if (got_sorted != want) {
      return "realloc did not take the lowest-index free pages";
    }
    if (pager.free_pages() != free_before) {
      return util::strf("free count drifted across the round trip: ",
                        free_before, " -> ", pager.free_pages());
    }
    break;  // one round trip per trace keeps the property cheap
  }
  return {};
}
const bool reg_roundtrip = register_trace_property("kv-pager-realloc-roundtrip",
                                                   pager_realloc_roundtrip);

// Same ops on a fresh pager => same ids, same page tables, same counters.
std::string pager_layout_deterministic(const scenario::Trace& trace) {
  gpu::KvPager a(pager_ops_config());
  gpu::KvPager b(pager_ops_config());
  const std::string bad_a = run_pager_ops(trace, a);
  const std::string bad_b = run_pager_ops(trace, b);
  if (bad_a != bad_b) return "replays disagree on invariant outcome";
  if (!bad_a.empty()) return bad_a;
  const auto ids_a = a.sequence_ids();
  if (ids_a != b.sequence_ids()) return "replays produced different ids";
  for (const auto id : ids_a) {
    if (a.page_table(id) != b.page_table(id)) {
      return util::strf("seq ", id, " mapped differently across replays");
    }
    if (a.tokens_of(id) != b.tokens_of(id)) {
      return util::strf("seq ", id, " sized differently across replays");
    }
  }
  if (a.stats().pages_allocated != b.stats().pages_allocated ||
      a.stats().grow_failures != b.stats().grow_failures ||
      a.stats().preemptions != b.stats().preemptions) {
    return "stats counters drifted across replays";
  }
  return {};
}
const bool reg_deterministic = register_trace_property(
    "kv-pager-deterministic-layout", pager_layout_deterministic);

// Both pagers replay the trace's ops in lockstep. Their ids differ, so live
// sequences are paired by creation order: entry k of `live` holds the k-th
// surviving sequence's id in each pager.
std::string pager_matches_reference(const scenario::Trace& trace) {
  gpu::KvPager real(pager_ops_config());
  ReferenceKvPager ref(pager_ops_config());
  struct Pair {
    gpu::KvSeqId real = 0;
    gpu::KvSeqId ref = 0;
  };
  std::vector<Pair> live;
  const std::vector<PagerOp> ops = pager_ops_from(trace);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PagerOp& op = ops[i];
    std::string bad;
    switch (op.kind) {
      case PagerOp::kCreate: {
        const Pair p{real.create(), ref.create()};
        const bool admitted = real.grow(p.real, op.tokens);
        if (admitted != ref.grow(p.ref, op.tokens)) {
          bad = "create+grow admitted by only one pager";
        } else if (admitted) {
          live.push_back(p);
        } else {
          real.release(p.real);
          ref.release(p.ref);
        }
        break;
      }
      case PagerOp::kGrow: {
        if (live.empty()) break;
        const Pair& p = live[op.pick % live.size()];
        const int tokens = ref.tokens_of(p.ref) + op.tokens;
        const bool a = real.grow(p.real, tokens);
        const bool b = ref.grow(p.ref, tokens);
        if (a != b) {
          bad = util::strf("grow to ", tokens, " tokens: pager says ", a,
                           ", reference says ", b);
        }
        break;
      }
      case PagerOp::kRelease: {
        if (live.empty()) break;
        const std::size_t at = op.pick % live.size();
        real.release(live[at].real);
        ref.release(live[at].ref);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      }
      case PagerOp::kPreempt: {
        if (live.empty()) break;
        const Pair& p = live[op.pick % live.size()];
        const int a = real.preempt(p.real);
        const int b = ref.preempt(p.ref);
        if (a != b) bad = util::strf("preempt freed ", a, " vs ", b, " pages");
        break;
      }
    }
    if (bad.empty() && (real.free_pages() != ref.free_pages() ||
                        real.used_pages() != ref.used_pages())) {
      bad = util::strf(real.free_pages(), "/", real.used_pages(),
                       " free/used pages vs ", ref.free_pages(), "/",
                       ref.used_pages());
    }
    if (bad.empty() && real.live_sequences() != ref.live_sequences()) {
      bad = "live sequence counts differ";
    }
    if (bad.empty()) {
      // sequence_ids() in creation order must line up pair by pair.
      const auto ids_real = real.sequence_ids();
      const auto ids_ref = ref.sequence_ids();
      for (std::size_t k = 0; k < live.size() && bad.empty(); ++k) {
        const Pair& p = live[k];
        if (ids_real[k] != p.real || ids_ref[k] != p.ref) {
          bad = util::strf("sequence_ids() out of creation order at ", k);
        } else if (real.page_table(p.real) != ref.page_table(p.ref)) {
          bad = util::strf("live sequence ", k, " maps different pages");
        } else if (real.tokens_of(p.real) != ref.tokens_of(p.ref)) {
          bad = util::strf("live sequence ", k, " holds ",
                           real.tokens_of(p.real), " tokens vs ",
                           ref.tokens_of(p.ref));
        }
      }
    }
    const gpu::KvPagerStats& a = real.stats();
    const gpu::KvPagerStats& b = ref.stats();
    if (bad.empty() &&
        (a.sequences_created != b.sequences_created ||
         a.pages_allocated != b.pages_allocated ||
         a.preemptions != b.preemptions ||
         a.grow_failures != b.grow_failures ||
         a.peak_pages_in_use != b.peak_pages_in_use)) {
      bad = "stats counters differ";
    }
    if (!bad.empty()) return util::strf("op ", i, ": ", bad);
  }
  return {};
}
const bool reg_reference = register_trace_property(
    "kv-pager-matches-reference", pager_matches_reference);

TEST(PropKvPager, IsolationAndConservationAfterEveryOp) {
  expect_property_holds("kv-pager-invariants");
}

TEST(PropKvPager, ReleaseThenReallocRoundTrips) {
  expect_property_holds("kv-pager-realloc-roundtrip");
}

TEST(PropKvPager, LayoutIsDeterministicForAFixedTrace) {
  expect_property_holds("kv-pager-deterministic-layout");
}

TEST(PropKvPager, MatchesTheReferencePagerOpForOp) {
  expect_property_holds("kv-pager-matches-reference");
}

// ------------------------------------------------------------- mutation ---

std::string mutant_invariants_hold(const scenario::Trace& trace) {
  BrokenPreemptPager pager(pager_ops_config());
  return run_pager_ops(trace, pager);
}

TEST(PropKvPagerMutant, StalePreemptPagerIsCaughtWithASmallCounterexample) {
  Config cfg;
  cfg.iterations = env_iterations(60);
  cfg.seed = scenario::fnv1a("kv-pager-preempt-alias-mutant");
  const Outcome<scenario::Trace> out = check<scenario::Trace>(
      random_trace, shrink_trace, mutant_invariants_hold, cfg);

  ASSERT_TRUE(out.falsified)
      << "the allocator invariants no longer distinguish a pager whose "
      << "preempt leaks its page table from gpu::KvPager — they would miss "
      << "this regression in src/gpu";
  EXPECT_LE(out.counterexample.events.size(), 20u)
      << "shrinking stalled; counterexample still has "
      << out.counterexample.events.size() << " events";
  EXPECT_FALSE(mutant_invariants_hold(out.counterexample).empty());
  // The real pager must survive the same op sequence — otherwise the
  // counterexample indicts the interpreter, not the mutant.
  EXPECT_TRUE(pager_invariants_hold(out.counterexample).empty());

  // Corpus material: canonical, reloadable, still failing after a round trip.
  const std::string text = scenario::save(out.counterexample);
  const scenario::Trace reloaded = scenario::load(text);
  EXPECT_EQ(scenario::save(reloaded), text);
  EXPECT_FALSE(mutant_invariants_hold(reloaded).empty());

  const std::filesystem::path dir = FP_PROP_ARTIFACT_DIR;
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "kv-pager-preempt-alias.fstrace") << text;
}

TEST(PropKvPagerMutant, CorpusCounterexampleStillKillsTheMutant) {
  const std::filesystem::path path =
      std::filesystem::path(FP_PROP_CORPUS_DIR) /
      "kv-pager-preempt-alias.fstrace";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const scenario::Trace trace = scenario::load(buf.str());
  EXPECT_LE(trace.events.size(), 20u);
  EXPECT_FALSE(mutant_invariants_hold(trace).empty())
      << "the committed counterexample no longer exposes the stale-preempt "
      << "pager — regenerate it from PropKvPagerMutant.StalePreemptPager*";
}

}  // namespace
}  // namespace faaspart::prop
