#include "index/btree_page.h"

#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace nblb {

// Header field offsets (little endian).
namespace {
constexpr size_t kOffType = 0;           // u16
constexpr size_t kOffNumEntries = 2;     // u16
constexpr size_t kOffKeySize = 4;        // u16
constexpr size_t kOffPayloadSize = 6;    // u16
constexpr size_t kOffNext = 8;           // u32
constexpr size_t kOffPrev = 12;          // u32
constexpr size_t kOffLeftmost = 16;      // u32
constexpr size_t kOffCacheItemSize = 20; // u16
// 22: u16 flags (unused)
constexpr size_t kOffCsn = 24;           // u64
constexpr size_t kOffCacheSeq = 32;      // u64
// 40..47 reserved
}  // namespace

void BTreePageView::Init(char* data, size_t page_size, PageType type,
                         uint16_t key_size, uint16_t payload_size,
                         uint16_t cache_item_size) {
  NBLB_CHECK(type == kPageTypeBTreeLeaf || type == kPageTypeBTreeInternal);
  NBLB_CHECK(key_size > 0);
  NBLB_CHECK(payload_size > 0);
  std::memset(data, 0, page_size);
  EncodeFixed16(data + kOffType, static_cast<uint16_t>(type));
  EncodeFixed16(data + kOffNumEntries, 0);
  EncodeFixed16(data + kOffKeySize, key_size);
  EncodeFixed16(data + kOffPayloadSize, payload_size);
  EncodeFixed32(data + kOffNext, kInvalidPageId);
  EncodeFixed32(data + kOffPrev, kInvalidPageId);
  EncodeFixed32(data + kOffLeftmost, kInvalidPageId);
  EncodeFixed16(data + kOffCacheItemSize,
                type == kPageTypeBTreeLeaf ? cache_item_size : 0);
  EncodeFixed64(data + kOffCsn, 0);
  EncodeFixed64(data + kOffCacheSeq, 0);
  EncodeFixed32(data + page_size - 4, kBTreePageMagic);
}

PageType BTreePageView::type() const {
  return static_cast<PageType>(DecodeFixed16(data_ + kOffType));
}
uint16_t BTreePageView::num_entries() const {
  return DecodeFixed16(data_ + kOffNumEntries);
}
void BTreePageView::set_num_entries(uint16_t n) {
  EncodeFixed16(data_ + kOffNumEntries, n);
}
uint16_t BTreePageView::key_size() const {
  return DecodeFixed16(data_ + kOffKeySize);
}
uint16_t BTreePageView::payload_size() const {
  return DecodeFixed16(data_ + kOffPayloadSize);
}
PageId BTreePageView::next() const { return DecodeFixed32(data_ + kOffNext); }
void BTreePageView::set_next(PageId id) { EncodeFixed32(data_ + kOffNext, id); }
PageId BTreePageView::prev() const { return DecodeFixed32(data_ + kOffPrev); }
void BTreePageView::set_prev(PageId id) { EncodeFixed32(data_ + kOffPrev, id); }
PageId BTreePageView::leftmost_child() const {
  return DecodeFixed32(data_ + kOffLeftmost);
}
void BTreePageView::set_leftmost_child(PageId id) {
  EncodeFixed32(data_ + kOffLeftmost, id);
}
uint16_t BTreePageView::cache_item_size() const {
  return DecodeFixed16(data_ + kOffCacheItemSize);
}
uint64_t BTreePageView::csn() const { return DecodeFixed64(data_ + kOffCsn); }
void BTreePageView::set_csn(uint64_t v) { EncodeFixed64(data_ + kOffCsn, v); }
uint64_t BTreePageView::cache_seq() const {
  return DecodeFixed64(data_ + kOffCacheSeq);
}
void BTreePageView::set_cache_seq(uint64_t v) {
  EncodeFixed64(data_ + kOffCacheSeq, v);
}

Status BTreePageView::Validate(uint16_t tree_key_size,
                               uint16_t tree_leaf_payload_size,
                               uint16_t tree_cache_item_size) const {
  const PageType t = type();
  if (t != kPageTypeBTreeLeaf && t != kPageTypeBTreeInternal) {
    return Status::Corruption("bad btree page type");
  }
  if (DecodeFixed32(data_ + page_size_ - 4) != kBTreePageMagic) {
    return Status::Corruption("bad btree page magic");
  }
  const bool leaf = t == kPageTypeBTreeLeaf;
  if (key_size() != tree_key_size ||
      payload_size() != (leaf ? tree_leaf_payload_size : 4) ||
      cache_item_size() != (leaf ? tree_cache_item_size : 0)) {
    return Status::Corruption("btree page geometry differs from the tree's");
  }
  // Compared as a count, not as EntriesEnd() > DirBegin(): a count past the
  // page would wrap DirBegin() around and pass.
  const size_t n = num_entries();
  if (n > Capacity()) return Status::Corruption("btree page entry overflow");
  // Every directory entry must name one of the n physical entries. One pass,
  // four entries per 64-bit word, one branch at the end: with n < 2^15, a
  // 16-bit lane x is >= n iff its top bit is set or (x | 0x8000) - n keeps
  // the top bit, and no borrow crosses a lane because x | 0x8000 > n. Four
  // accumulators over 16 entries a step keep the words independent, which
  // runs this at a fraction of a leaf's binary search.
  const char* dir = data_ + DirBegin();
  bool bad = false;
  size_t i = 0;
  if (n < 0x8000) {
    constexpr uint64_t kTop = 0x8000800080008000ull;
    const uint64_t lanes_n = n * 0x0001000100010001ull;
    auto over = [&](size_t at) {
      const uint64_t w = DecodeFixed64(dir + at * kBTreeDirEntrySize);
      return w | ((w | kTop) - lanes_n);
    };
    uint64_t acc[4] = {0, 0, 0, 0};
    for (; i + 16 <= n; i += 16) {
      for (size_t k = 0; k < 4; ++k) acc[k] |= over(i + 4 * k);
    }
    for (; i + 4 <= n; i += 4) acc[0] |= over(i);
    bad = ((acc[0] | acc[1] | acc[2] | acc[3]) & kTop) != 0;
  }
  for (; i < n; ++i) bad |= DecodeFixed16(dir + i * kBTreeDirEntrySize) >= n;
  if (bad) return Status::Corruption("btree directory entry past the entries");
  return Status::OK();
}

size_t BTreePageView::StablePoint() const {
  const size_t usable = UsableBytes();
  const size_t e = entry_size();
  return kBTreeHeaderSize + usable * e / (e + kBTreeDirEntrySize);
}

Slice BTreePageView::KeyAtPhysical(size_t phys) const {
  NBLB_DCHECK(phys < num_entries());
  return Slice(EntryPtr(phys), key_size());
}

const char* BTreePageView::PayloadAtPhysical(size_t phys) const {
  NBLB_DCHECK(phys < num_entries());
  return EntryPtr(phys) + key_size();
}

uint16_t BTreePageView::DirAt(size_t pos) const {
  NBLB_DCHECK(pos < num_entries());
  return DecodeFixed16(data_ + page_size_ - kBTreeFooterSize -
                       (pos + 1) * kBTreeDirEntrySize);
}

void BTreePageView::SetDirAt(size_t pos, uint16_t phys) {
  EncodeFixed16(
      data_ + page_size_ - kBTreeFooterSize - (pos + 1) * kBTreeDirEntrySize,
      phys);
}

uint64_t BTreePageView::ValueAt(size_t pos) const {
  NBLB_DCHECK(payload_size() == 8);
  return DecodeFixed64(PayloadAt(pos));
}

PageId BTreePageView::ChildAt(size_t pos) const {
  NBLB_DCHECK(payload_size() == 4);
  return DecodeFixed32(PayloadAt(pos));
}

size_t BTreePageView::LowerBound(const Slice& key) const {
  size_t lo = 0, hi = num_entries();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (KeyAt(mid).Compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool BTreePageView::FindExact(const Slice& key, size_t* pos) const {
  const size_t p = LowerBound(key);
  if (p < num_entries() && KeyAt(p) == key) {
    *pos = p;
    return true;
  }
  return false;
}

PageId BTreePageView::ChildFor(const Slice& key) const {
  NBLB_DCHECK(type() == kPageTypeBTreeInternal);
  // Last entry with key_i <= key covers it; otherwise the leftmost child.
  const size_t p = LowerBound(key);
  if (p < num_entries() && KeyAt(p) == key) {
    return ChildAt(p);
  }
  if (p == 0) return leftmost_child();
  return ChildAt(p - 1);
}

Status BTreePageView::InsertEntry(const Slice& key, const Slice& payload) {
  NBLB_CHECK(key.size() == key_size());
  NBLB_CHECK(payload.size() == payload_size());
  const size_t n = num_entries();
  if (n >= Capacity()) {
    return Status::ResourceExhausted("btree page full");
  }
  const size_t pos = LowerBound(key);
  if (pos < n && KeyAt(pos) == key) {
    return Status::AlreadyExists("duplicate key");
  }
  // Physical append. This may overwrite the low periphery of the cache
  // region — by design (§2.1.1: "key inserts freely overwrite the periphery
  // of the cache space").
  char* dst = EntryPtr(n);
  std::memcpy(dst, key.data(), key.size());
  std::memcpy(dst + key_size(), payload.data(), payload.size());
  // Shift directory positions [pos, n) outward by one slot (addresses move
  // down by one dir entry) and write the new position.
  if (n > pos) {
    char* base = data_ + page_size_ - kBTreeFooterSize - n * kBTreeDirEntrySize;
    std::memmove(base - kBTreeDirEntrySize, base,
                 (n - pos) * kBTreeDirEntrySize);
  }
  SetDirAt(pos, static_cast<uint16_t>(n));
  set_num_entries(static_cast<uint16_t>(n + 1));
  return Status::OK();
}

Status BTreePageView::AppendEntry(const Slice& key, const Slice& payload) {
  NBLB_CHECK(key.size() == key_size());
  NBLB_CHECK(payload.size() == payload_size());
  const size_t n = num_entries();
  if (n >= Capacity()) {
    return Status::ResourceExhausted("btree page full");
  }
  NBLB_DCHECK(n == 0 || KeyAt(n - 1).Compare(key) < 0);
  char* dst = EntryPtr(n);
  std::memcpy(dst, key.data(), key.size());
  std::memcpy(dst + key_size(), payload.data(), payload.size());
  SetDirAt(n, static_cast<uint16_t>(n));
  set_num_entries(static_cast<uint16_t>(n + 1));
  return Status::OK();
}

Status BTreePageView::RemoveEntryAt(size_t pos) {
  const size_t n = num_entries();
  if (pos >= n) return Status::OutOfRange("remove position out of range");
  const uint16_t phys = DirAt(pos);
  const uint16_t last_phys = static_cast<uint16_t>(n - 1);

  // Shift directory positions [pos+1, n) inward by one slot.
  if (pos + 1 < n) {
    char* base = data_ + page_size_ - kBTreeFooterSize - n * kBTreeDirEntrySize;
    std::memmove(base + kBTreeDirEntrySize, base,
                 (n - 1 - pos) * kBTreeDirEntrySize);
  }
  set_num_entries(static_cast<uint16_t>(n - 1));

  // Swap-remove in the physical region: move the last physical entry into
  // the hole and fix the directory slot that referenced it.
  if (phys != last_phys) {
    std::memcpy(EntryPtr(phys), EntryPtr(last_phys), entry_size());
    for (size_t j = 0; j < n - 1; ++j) {
      if (DirAt(j) == last_phys) {
        SetDirAt(j, phys);
        break;
      }
    }
  }
  // Zero reclaimed bytes so the cache never misreads them (invariant 3).
  std::memset(EntryPtr(last_phys), 0, entry_size());
  std::memset(data_ + page_size_ - kBTreeFooterSize - n * kBTreeDirEntrySize, 0,
              kBTreeDirEntrySize);
  return Status::OK();
}

void BTreePageView::SetPayloadAt(size_t pos, const Slice& payload) {
  NBLB_CHECK(payload.size() == payload_size());
  std::memcpy(EntryPtr(DirAt(pos)) + key_size(), payload.data(),
              payload.size());
}

void BTreePageView::ExportSorted(
    std::vector<std::pair<std::string, std::string>>* out) const {
  out->clear();
  out->reserve(num_entries());
  for (size_t i = 0; i < num_entries(); ++i) {
    out->emplace_back(KeyAt(i).ToString(),
                      std::string(PayloadAt(i), payload_size()));
  }
}

Status BTreePageView::RebuildFromSorted(
    const std::vector<std::pair<std::string, std::string>>& entries) {
  if (entries.size() > Capacity()) {
    return Status::ResourceExhausted("too many entries for page");
  }
  set_num_entries(0);
  // Zero the whole variable region (entries + cache + directory).
  std::memset(data_ + kBTreeHeaderSize, 0,
              page_size_ - kBTreeHeaderSize - kBTreeFooterSize);
  for (const auto& [k, v] : entries) {
    NBLB_RETURN_NOT_OK(AppendEntry(Slice(k), Slice(v)));
  }
  return Status::OK();
}

void BTreePageView::ZeroFreeSpace() {
  std::memset(data_ + FreeBegin(), 0, FreeBytes());
}

}  // namespace nblb
