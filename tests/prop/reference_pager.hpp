// The reference model for gpu::KvPager's differential property
// (prop_kv_pager.cpp). NEVER include this from src/.
//
// This is the pager as it was first written: sequences in an ordered
// std::map keyed by a monotonic id, free pages in a std::set so begin() is
// always the lowest free index. Every operation is a direct reading of the
// contract in gpu/kv_pager.hpp, with no slot reuse, generations or bit
// tricks, which is what makes it a trustworthy oracle for the
// slot-vector/bitmap pager in src/gpu: fed the same op stream, the two
// must grant the same pages in the same order, agree on every grow result,
// and count the same stats. Its ids differ (1, 2, 3, ... here), so the
// property pairs sequences by creation order instead of by id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "gpu/kv_pager.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::prop {

class ReferenceKvPager {
 public:
  explicit ReferenceKvPager(gpu::KvPagerConfig cfg) : cfg_(cfg) {
    FP_CHECK_MSG(cfg_.page_tokens > 0, "kv pager: page_tokens must be positive");
    FP_CHECK_MSG(cfg_.bytes_per_token > 0,
                 "kv pager: bytes_per_token must be positive");
    FP_CHECK_MSG(cfg_.capacity >= 0, "kv pager: negative capacity");
    FP_CHECK_MSG(cfg_.admit_watermark > 0.0 && cfg_.admit_watermark <= 1.0,
                 "kv pager: admit_watermark must be in (0, 1]");
    total_pages_ = static_cast<int>(cfg_.capacity / page_bytes());
    watermark_pages_ = static_cast<int>(cfg_.admit_watermark *
                                        static_cast<double>(total_pages_));
    for (int p = 0; p < total_pages_; ++p) free_.insert(p);
  }

  [[nodiscard]] int total_pages() const { return total_pages_; }
  [[nodiscard]] int free_pages() const { return static_cast<int>(free_.size()); }
  [[nodiscard]] int used_pages() const { return total_pages_ - free_pages(); }
  [[nodiscard]] util::Bytes page_bytes() const {
    return static_cast<util::Bytes>(cfg_.page_tokens) * cfg_.bytes_per_token;
  }
  [[nodiscard]] std::size_t live_sequences() const { return seqs_.size(); }
  [[nodiscard]] const gpu::KvPagerStats& stats() const { return stats_; }

  [[nodiscard]] int pages_for_tokens(int tokens) const {
    FP_CHECK_MSG(tokens >= 0, "kv pager: negative token count");
    return (tokens + cfg_.page_tokens - 1) / cfg_.page_tokens;
  }
  [[nodiscard]] bool can_admit(int tokens) const {
    return used_pages() + pages_for_tokens(tokens) <= watermark_pages_;
  }
  [[nodiscard]] bool can_ever_admit(int tokens) const {
    return pages_for_tokens(tokens) <= watermark_pages_;
  }

  [[nodiscard]] bool live(gpu::KvSeqId id) const { return seqs_.count(id) != 0; }
  [[nodiscard]] int tokens_of(gpu::KvSeqId id) const { return seq(id).tokens; }
  [[nodiscard]] const std::vector<int>& page_table(gpu::KvSeqId id) const {
    return seq(id).pages;
  }
  [[nodiscard]] std::vector<gpu::KvSeqId> sequence_ids() const {
    std::vector<gpu::KvSeqId> ids;
    ids.reserve(seqs_.size());
    for (const auto& [id, s] : seqs_) ids.push_back(id);
    return ids;
  }

  gpu::KvSeqId create() {
    const gpu::KvSeqId id = next_id_++;
    seqs_.emplace(id, Seq{});
    ++stats_.sequences_created;
    return id;
  }

  bool grow(gpu::KvSeqId id, int tokens) {
    FP_CHECK_MSG(tokens >= 0, "kv pager: negative token count");
    Seq& s = seq_mut(id);
    const int target = pages_for_tokens(tokens);
    const int have = static_cast<int>(s.pages.size());
    if (target > have) {
      const int need = target - have;
      if (need > free_pages()) {
        ++stats_.grow_failures;
        return false;
      }
      for (int i = 0; i < need; ++i) {
        const auto it = free_.begin();  // lowest index: deterministic layout
        s.pages.push_back(*it);
        free_.erase(it);
      }
      stats_.pages_allocated += static_cast<std::uint64_t>(need);
      stats_.peak_pages_in_use =
          std::max(stats_.peak_pages_in_use, used_pages());
    }
    s.tokens = std::max(s.tokens, tokens);
    return true;
  }

  void release(gpu::KvSeqId id) {
    Seq& s = seq_mut(id);
    for (const int p : s.pages) free_.insert(p);
    seqs_.erase(id);
  }

  int preempt(gpu::KvSeqId id) {
    Seq& s = seq_mut(id);
    const int freed = static_cast<int>(s.pages.size());
    for (const int p : s.pages) free_.insert(p);
    s.pages.clear();
    s.tokens = 0;
    ++stats_.preemptions;
    return freed;
  }

 protected:  // broken_pager.hpp's mutant reuses everything but preempt()
  struct Seq {
    int tokens = 0;
    std::vector<int> pages;
  };

  [[nodiscard]] const Seq& seq(gpu::KvSeqId id) const {
    const auto it = seqs_.find(id);
    if (it == seqs_.end()) {
      throw util::NotFoundError(util::strf("kv pager: unknown sequence ", id));
    }
    return it->second;
  }
  Seq& seq_mut(gpu::KvSeqId id) { return const_cast<Seq&>(seq(id)); }

  gpu::KvPagerConfig cfg_;
  int total_pages_ = 0;
  int watermark_pages_ = 0;
  std::set<int> free_;            // lowest-index-first hand-out
  std::map<gpu::KvSeqId, Seq> seqs_;  // ordered: deterministic iteration
  gpu::KvSeqId next_id_ = 1;
  gpu::KvPagerStats stats_;
};

}  // namespace faaspart::prop
