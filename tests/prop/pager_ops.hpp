// Deterministic trace -> KV-pager op interpreter, shared by the real-pager
// properties and the broken-pager mutation check (prop_kv_pager.cpp).
//
// Every property in tests/prop takes a scenario::Trace, so the pager suite
// reinterprets each arrival event as one allocator operation: the op kind,
// token count and victim pick all derive from an FNV-1a hash of the event's
// (function, index, time) — pure data, no extra entropy — which keeps
// shrunk counterexamples replayable as .fstrace corpus files like every
// other suite's.
//
// The pool is deliberately tiny (24 pages of 4 tokens) so random traces
// regularly exhaust it: grow failures, preemption and realloc-after-release
// all happen inside two dozen events.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "gpu/kv_pager.hpp"
#include "scenario/trace.hpp"
#include "util/strings.hpp"

namespace faaspart::prop {

inline gpu::KvPagerConfig pager_ops_config() {
  gpu::KvPagerConfig cfg;
  cfg.page_tokens = 4;
  cfg.bytes_per_token = 1;
  cfg.capacity = 96;  // 24 pages
  cfg.admit_watermark = 0.75;
  return cfg;
}

struct PagerOp {
  enum Kind { kCreate, kGrow, kRelease, kPreempt };
  Kind kind = kCreate;
  int tokens = 0;          ///< initial size (kCreate) or growth delta (kGrow)
  std::uint64_t pick = 0;  ///< victim selector, taken mod the live count
};

/// One op per trace event, fully determined by the event's content.
inline std::vector<PagerOp> pager_ops_from(const scenario::Trace& trace) {
  std::vector<PagerOp> ops;
  ops.reserve(trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const scenario::TraceEvent& ev = trace.events[i];
    const std::uint64_t h =
        scenario::fnv1a(util::strf(ev.function, "|", i, "|", ev.at.ns));
    PagerOp op;
    switch (h % 8) {
      case 0:
      case 1:
      case 2:
        op.kind = PagerOp::kCreate;
        op.tokens = 1 + static_cast<int>((h >> 8) % 40);
        break;
      case 3:
      case 4:
        op.kind = PagerOp::kGrow;
        op.tokens = 1 + static_cast<int>((h >> 8) % 8);
        break;
      case 5:
        op.kind = PagerOp::kRelease;
        break;
      default:
        op.kind = PagerOp::kPreempt;
        break;
    }
    op.pick = h >> 16;
    ops.push_back(op);
  }
  return ops;
}

/// The two allocator invariants, checked against any pager-shaped type:
/// no page mapped by two live sequences (isolation) and
/// free + mapped == total with used_pages agreeing with the page tables
/// (conservation). Empty string = both hold.
template <typename Pager>
std::string check_pager_invariants(const Pager& pager) {
  std::set<int> mapped;
  int mapped_total = 0;
  for (const auto id : pager.sequence_ids()) {
    for (const int p : pager.page_table(id)) {
      if (p < 0 || p >= pager.total_pages()) {
        return util::strf("seq ", id, " maps page ", p, " outside the pool");
      }
      if (!mapped.insert(p).second) {
        return util::strf("page ", p, " mapped by two live sequences");
      }
      ++mapped_total;
    }
  }
  if (mapped_total != pager.used_pages()) {
    return util::strf("page tables map ", mapped_total, " pages but ",
                      pager.used_pages(), " are accounted as used");
  }
  if (pager.free_pages() + pager.used_pages() != pager.total_pages()) {
    return util::strf("conservation broken: ", pager.free_pages(), " free + ",
                      pager.used_pages(), " used != ", pager.total_pages());
  }
  return {};
}

/// Replays the trace's ops against `pager`, checking both invariants after
/// every op. Returns the first violation ("op N: ...") or empty. `live_out`
/// (optional) receives the surviving sequence ids in admission order.
template <typename Pager>
std::string run_pager_ops(const scenario::Trace& trace, Pager& pager,
                          std::vector<gpu::KvSeqId>* live_out = nullptr) {
  std::vector<gpu::KvSeqId> live;
  const std::vector<PagerOp> ops = pager_ops_from(trace);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const PagerOp& op = ops[i];
    switch (op.kind) {
      case PagerOp::kCreate: {
        const gpu::KvSeqId id = pager.create();
        if (pager.grow(id, op.tokens)) {
          live.push_back(id);
        } else {
          pager.release(id);  // could not admit; retire immediately
        }
        break;
      }
      case PagerOp::kGrow: {
        if (live.empty()) break;
        const gpu::KvSeqId id = live[op.pick % live.size()];
        pager.grow(id, pager.tokens_of(id) + op.tokens);  // may refuse
        break;
      }
      case PagerOp::kRelease: {
        if (live.empty()) break;
        const std::size_t at = op.pick % live.size();
        pager.release(live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      }
      case PagerOp::kPreempt: {
        if (live.empty()) break;
        pager.preempt(live[op.pick % live.size()]);
        break;
      }
    }
    const std::string bad = check_pager_invariants(pager);
    if (!bad.empty()) return util::strf("op ", i, ": ", bad);
  }
  if (live_out != nullptr) *live_out = live;
  return {};
}

}  // namespace faaspart::prop
