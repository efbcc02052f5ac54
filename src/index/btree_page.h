// BTreePageView: in-page operations for B+Tree nodes, laid out exactly as the
// paper's Figure 1:
//
//   +--------------------------------------------------------------+
//   | fixed header | entries (keys+payloads) -->   free   <-- dir  | footer |
//   +--------------------------------------------------------------+
//
// Entries (key + payload, fixed width E = K + V) grow UP from the header;
// the directory (2-byte physical-entry indexes in sorted key order) grows
// DOWN from the footer. The interval in between is the free space the index
// cache recycles (§2.1). Geometry accessors expose that interval and the
// stable point S — the address both regions reach simultaneously at 100%
// fill, S = header + usable * E/(E+D) (the paper's S = K/(K+D) * P with the
// payload folded into the key term and header/footer accounted for).
//
// Invariants maintained by every mutation:
//   1. Physical entries are contiguous in [0, n).
//   2. Directory position j holds the physical index of the j-th smallest key.
//   3. Bytes freed by shrinking either region are zeroed, so the cache never
//      misreads reclaimed bytes as a live cache item.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "storage/page.h"

namespace nblb {

/// Serialized header size of a B+Tree page.
inline constexpr size_t kBTreeHeaderSize = 48;
/// Serialized footer size (crc32 + magic).
inline constexpr size_t kBTreeFooterSize = 8;
/// Directory entry width (u16 physical index).
inline constexpr size_t kBTreeDirEntrySize = 2;
/// Footer magic value.
inline constexpr uint32_t kBTreePageMagic = 0xb7ee2011u;

/// \brief Mutable view over one B+Tree page buffer (does not own the bytes).
class BTreePageView {
 public:
  BTreePageView(char* data, size_t page_size)
      : data_(data), page_size_(page_size) {}

  /// \brief Formats a fresh page. cache_item_size is meaningful on leaves
  /// only (0 disables the in-page cache).
  static void Init(char* data, size_t page_size, PageType type,
                   uint16_t key_size, uint16_t payload_size,
                   uint16_t cache_item_size);

  // ---- Header accessors -------------------------------------------------

  PageType type() const;
  bool IsLeaf() const { return type() == kPageTypeBTreeLeaf; }
  uint16_t num_entries() const;
  uint16_t key_size() const;
  uint16_t payload_size() const;
  /// Entry width E = key_size + payload_size.
  size_t entry_size() const { return key_size() + payload_size(); }

  PageId next() const;
  void set_next(PageId id);
  PageId prev() const;
  void set_prev(PageId id);
  PageId leftmost_child() const;
  void set_leftmost_child(PageId id);

  uint16_t cache_item_size() const;
  uint64_t csn() const;
  void set_csn(uint64_t v);
  uint64_t cache_seq() const;
  void set_cache_seq(uint64_t v);

  /// \brief Checks that the bytes are a node of a tree with these widths
  /// before anything trusts them: page type, footer magic, header key and
  /// payload sizes (internal nodes carry 4-byte child ids and no cache
  /// items; leaves carry the tree's leaf payload and cache item sizes), an
  /// entry count that fits the page, and a directory whose every entry
  /// names a live physical entry. Corruption otherwise. With these checks
  /// passed, every accessor below stays inside the page.
  Status Validate(uint16_t tree_key_size, uint16_t tree_leaf_payload_size,
                  uint16_t tree_cache_item_size) const;

  // ---- Geometry ----------------------------------------------------------

  /// First byte past the entry region.
  size_t EntriesEnd() const {
    return kBTreeHeaderSize + num_entries() * entry_size();
  }
  /// First byte of the directory region.
  size_t DirBegin() const {
    return page_size_ - kBTreeFooterSize -
           num_entries() * kBTreeDirEntrySize;
  }
  /// The free interval recycled by the index cache: [FreeBegin, FreeEnd).
  size_t FreeBegin() const { return EntriesEnd(); }
  size_t FreeEnd() const { return DirBegin(); }
  size_t FreeBytes() const { return FreeEnd() - FreeBegin(); }

  /// \brief Max entries this page can hold.
  size_t Capacity() const {
    return (page_size_ - kBTreeHeaderSize - kBTreeFooterSize) /
           (entry_size() + kBTreeDirEntrySize);
  }
  bool HasRoom() const { return num_entries() < Capacity(); }

  /// \brief The stable point S: the byte offset both regions reach together
  /// at 100% fill. Cache items near S survive longest (§2.1.1).
  size_t StablePoint() const;

  /// \brief Bytes used by live index content (entries + directory), i.e. the
  /// fill-factor numerator. Usable = page minus header/footer.
  size_t UsedBytes() const {
    return num_entries() * (entry_size() + kBTreeDirEntrySize);
  }
  size_t UsableBytes() const {
    return page_size_ - kBTreeHeaderSize - kBTreeFooterSize;
  }

  // ---- Entry access -------------------------------------------------------

  /// \brief Key bytes of the physical entry `phys`.
  Slice KeyAtPhysical(size_t phys) const;
  /// \brief Payload bytes of the physical entry `phys`.
  const char* PayloadAtPhysical(size_t phys) const;

  /// \brief Physical index of the sorted position `pos`.
  uint16_t DirAt(size_t pos) const;

  /// \brief Key at sorted position `pos`.
  Slice KeyAt(size_t pos) const { return KeyAtPhysical(DirAt(pos)); }
  /// \brief Payload at sorted position `pos`.
  const char* PayloadAt(size_t pos) const {
    return PayloadAtPhysical(DirAt(pos));
  }
  /// \brief Leaf payload decoded as u64 (RID).
  uint64_t ValueAt(size_t pos) const;
  /// \brief Internal payload decoded as a child PageId.
  PageId ChildAt(size_t pos) const;

  /// \brief First sorted position whose key is >= `key` (may be
  /// num_entries()).
  size_t LowerBound(const Slice& key) const;

  /// \brief Exact-match search; fills `pos` on success.
  bool FindExact(const Slice& key, size_t* pos) const;

  /// \brief Child page covering `key` (internal pages).
  PageId ChildFor(const Slice& key) const;

  // ---- Mutation ----------------------------------------------------------

  /// \brief Inserts (key, payload) keeping the directory sorted. Fails with
  /// ResourceExhausted when full; AlreadyExists on duplicate key.
  Status InsertEntry(const Slice& key, const Slice& payload);

  /// \brief Appends an entry known to sort after all existing keys (bulk
  /// load fast path; no duplicate check).
  Status AppendEntry(const Slice& key, const Slice& payload);

  /// \brief Removes the entry at sorted position `pos` (swap-remove; zeroes
  /// the freed entry and directory bytes).
  Status RemoveEntryAt(size_t pos);

  /// \brief Overwrites the payload at sorted position `pos`.
  void SetPayloadAt(size_t pos, const Slice& payload);

  /// \brief Copies all entries out in sorted order (split support).
  void ExportSorted(std::vector<std::pair<std::string, std::string>>* out) const;

  /// \brief Clears all entries and zeroes the whole variable region, then
  /// re-appends `entries` (must be sorted). Used to rebuild pages on split.
  Status RebuildFromSorted(
      const std::vector<std::pair<std::string, std::string>>& entries);

  /// \brief Zeroes the entire free interval (cache invalidation).
  void ZeroFreeSpace();

  char* raw() { return data_; }
  const char* raw() const { return data_; }
  size_t page_size() const { return page_size_; }

 private:
  char* EntryPtr(size_t phys) {
    return data_ + kBTreeHeaderSize + phys * entry_size();
  }
  const char* EntryPtr(size_t phys) const {
    return data_ + kBTreeHeaderSize + phys * entry_size();
  }
  void SetDirAt(size_t pos, uint16_t phys);
  void set_num_entries(uint16_t n);

  char* data_;
  size_t page_size_;
};

}  // namespace nblb
