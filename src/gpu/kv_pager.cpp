#include "gpu/kv_pager.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace faaspart::gpu {

KvPager::KvPager(KvPagerConfig cfg) : cfg_(cfg) {
  FP_CHECK_MSG(cfg_.page_tokens > 0, "kv pager: page_tokens must be positive");
  FP_CHECK_MSG(cfg_.bytes_per_token > 0,
               "kv pager: bytes_per_token must be positive");
  FP_CHECK_MSG(cfg_.capacity >= 0, "kv pager: negative capacity");
  FP_CHECK_MSG(cfg_.admit_watermark > 0.0 && cfg_.admit_watermark <= 1.0,
               "kv pager: admit_watermark must be in (0, 1]");
  total_pages_ = static_cast<int>(cfg_.capacity / page_bytes());
  watermark_pages_ =
      static_cast<int>(cfg_.admit_watermark * static_cast<double>(total_pages_));
  free_words_.assign(static_cast<std::size_t>(total_pages_ + 63) / 64,
                     ~std::uint64_t{0});
  if (total_pages_ % 64 != 0) {
    free_words_.back() = (std::uint64_t{1} << (total_pages_ % 64)) - 1;
  }
  free_count_ = total_pages_;
}

util::Bytes KvPager::page_bytes() const {
  return static_cast<util::Bytes>(cfg_.page_tokens) * cfg_.bytes_per_token;
}

util::Bytes KvPager::bytes_in_use() const {
  return static_cast<util::Bytes>(used_pages()) * page_bytes();
}

int KvPager::pages_for_tokens(int tokens) const {
  FP_CHECK_MSG(tokens >= 0, "kv pager: negative token count");
  return (tokens + cfg_.page_tokens - 1) / cfg_.page_tokens;
}

bool KvPager::can_admit(int tokens) const {
  return used_pages() + pages_for_tokens(tokens) <= watermark_pages_;
}

bool KvPager::can_ever_admit(int tokens) const {
  return pages_for_tokens(tokens) <= watermark_pages_;
}

const KvPager::Slot& KvPager::slot(KvSeqId id) const {
  const Slot* s = find(id);
  if (s == nullptr) {
    throw util::NotFoundError(util::strf("kv pager: unknown sequence ", id));
  }
  return *s;
}

KvPager::Slot& KvPager::slot_mut(KvSeqId id) {
  return const_cast<Slot&>(slot(id));
}

int KvPager::take_lowest_free_page() {
  while (free_words_[first_free_word_] == 0) ++first_free_word_;
  std::uint64_t& word = free_words_[first_free_word_];
  const int bit = std::countr_zero(word);
  word &= word - 1;  // clear the lowest set bit
  --free_count_;
  return static_cast<int>(first_free_word_ * 64) + bit;
}

void KvPager::free_page(int page) {
  const auto w = static_cast<std::size_t>(page) / 64;
  free_words_[w] |= std::uint64_t{1} << (page % 64);
  ++free_count_;
  first_free_word_ = std::min(first_free_word_, w);
}

int KvPager::tokens_of(KvSeqId id) const { return slot(id).tokens; }

const std::vector<int>& KvPager::page_table(KvSeqId id) const {
  return slot(id).pages;
}

std::vector<KvSeqId> KvPager::sequence_ids() const {
  // Slots are reused, so slot order is not creation order; sort by serial.
  std::vector<std::pair<std::uint64_t, KvSeqId>> live;
  live.reserve(live_sequences());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (!s.live) continue;
    live.emplace_back(s.serial,
                      (static_cast<KvSeqId>(s.generation) << 32) | i);
  }
  std::sort(live.begin(), live.end());
  std::vector<KvSeqId> ids;
  ids.reserve(live.size());
  for (const auto& entry : live) ids.push_back(entry.second);
  return ids;
}

KvSeqId KvPager::create() {
  std::uint32_t index = 0;
  if (free_slots_.empty()) {
    FP_CHECK_MSG(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "kv pager: sequence slots exhausted");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[index];
  s.live = true;
  s.serial = stats_.sequences_created++;
  return (static_cast<KvSeqId>(s.generation) << 32) | index;
}

bool KvPager::grow(KvSeqId id, int tokens) {
  FP_CHECK_MSG(tokens >= 0, "kv pager: negative token count");
  Slot& s = slot_mut(id);
  const int target = pages_for_tokens(tokens);
  const int have = static_cast<int>(s.pages.size());
  if (target > have) {
    const int need = target - have;
    if (need > free_count_) {
      ++stats_.grow_failures;
      return false;
    }
    for (int i = 0; i < need; ++i) s.pages.push_back(take_lowest_free_page());
    stats_.pages_allocated += static_cast<std::uint64_t>(need);
    stats_.peak_pages_in_use = std::max(stats_.peak_pages_in_use, used_pages());
  }
  s.tokens = std::max(s.tokens, tokens);
  return true;
}

void KvPager::release(KvSeqId id) {
  Slot& s = slot_mut(id);
  for (const int p : s.pages) free_page(p);
  s.pages.clear();
  s.tokens = 0;
  s.live = false;
  if (++s.generation == 0) s.generation = 1;  // ids are never 0
  free_slots_.push_back(static_cast<std::uint32_t>(id));
}

int KvPager::preempt(KvSeqId id) {
  Slot& s = slot_mut(id);
  const int freed = static_cast<int>(s.pages.size());
  for (const int p : s.pages) free_page(p);
  s.pages.clear();
  s.tokens = 0;
  ++stats_.preemptions;
  return freed;
}

}  // namespace faaspart::gpu
