// Superblock: the per-shard durable catalog root.
//
// A shard's backing file holds heap and B-tree pages but no record of where
// they start or what schema they carry — historically that lived only in
// process memory, which is why reopen was impossible. The superblock
// persists exactly that bootstrap state in a tiny sidecar file
// (`<db path>.sb`): schema, table options, heap/index roots, the
// checkpoint LSN the WAL replays from, and a clean-shutdown flag.
//
// Torn-write safety comes from double buffering: the sidecar holds two
// fixed 4096-byte slots and a publish writes version v into slot (v % 2),
// then fsyncs. A crash mid-write can only tear the slot being written; the
// other slot still holds the previous version intact. Readers validate both
// slots (magic, format, CRC32 over the payload) and take the highest valid
// version.
//
// The format number covers the data file and the WAL too: a build that
// changes how their pages are laid out bumps it, so files of another layout
// fail to open with NotSupported instead of being misread.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "storage/page.h"

namespace nblb {

/// \brief Everything needed to reattach a shard to its backing file.
struct SuperblockData {
  /// Monotonic publish counter; also selects the slot (version % 2).
  uint64_t version = 0;
  /// WAL records with lsn <= checkpoint_lsn are reflected in the data file
  /// as of this publish; replay starts after it.
  uint64_t checkpoint_lsn = 0;
  uint32_t page_size = 0;
  /// Data-file page count at publish time (informational; the file may be
  /// longer after a crash — trailing pages are unreferenced garbage).
  uint32_t num_pages = 0;
  PageId heap_first_page = kInvalidPageId;
  PageId btree_meta_page = kInvalidPageId;
  /// True only when the last publish came from an orderly close; cleared
  /// immediately after every open so a crash implies "dirty".
  bool clean_shutdown = false;
  bool reuse_free_slots = false;
  bool enable_index_cache = true;
  std::vector<uint32_t> key_columns;
  std::vector<uint32_t> cached_columns;
  std::vector<Column> columns;
};

/// \brief Reads/writes the double-buffered superblock sidecar. Stateless:
/// publishes are rare (one per checkpoint), so each call opens the file.
class Superblock {
 public:
  /// \brief Sidecar path for a data file: "<db_path>.sb".
  static std::string PathFor(const std::string& db_path);

  /// \brief Serializes `data` into slot (data.version % 2) and fsyncs.
  static Status Write(const std::string& sb_path, const SuperblockData& data);

  /// \brief Validates both slots and returns the highest valid version.
  /// NotFound when the file is missing; NotSupported, naming both formats,
  /// when no slot is of this build's format but one is intact under
  /// another; Corruption when neither slot validates.
  static Result<SuperblockData> Read(const std::string& sb_path);
};

}  // namespace nblb
