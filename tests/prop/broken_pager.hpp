// A deliberately broken KV pager — the mutant prop_kv_pager.cpp must kill.
// NEVER include this from src/.
//
// The mutation is the classic use-after-free of page allocators: preempt()
// returns the sequence's pages to the free list but forgets to clear the
// page table, so the "evicted" sequence still maps pages the next grow()
// will hand to someone else. Conservation breaks the instant preempt runs
// (the tables map more pages than are accounted used) and isolation breaks
// one allocation later (two live sequences share a page). Everything else —
// lowest-index hand-out, all-or-nothing grow, release — is the reference
// pager's own code (reference_pager.hpp), so only the allocator invariants
// can tell the two apart.
#pragma once

#include "gpu/kv_pager.hpp"
#include "prop/reference_pager.hpp"

namespace faaspart::prop {

class BrokenPreemptPager : public ReferenceKvPager {
 public:
  using ReferenceKvPager::ReferenceKvPager;

  int preempt(gpu::KvSeqId id) {
    Seq& s = seq_mut(id);
    const int freed = static_cast<int>(s.pages.size());
    for (const int p : s.pages) free_.insert(p);
    // BUG: the page table survives the eviction — s.pages.clear() missing.
    s.tokens = 0;
    ++stats_.preemptions;
    return freed;
  }
};

}  // namespace faaspart::prop
