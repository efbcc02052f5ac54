#include "storage/superblock.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "common/crc32.h"

namespace nblb {

namespace {

constexpr uint32_t kSuperblockMagic = 0x4e425342;  // "NBSB"
// The on-disk format of the shard files a superblock describes, the WAL
// included. 2: heap pages are slotted and hold trimmed row images (format 1
// held fixed-width rows behind an occupancy bitmap). 3: the payload drops
// the semantic-ID partition-bits field, which nothing read. 4: a WAL
// commit that does not fit the tail page starts on the next page, so the
// log has zero gaps that an older scanner would take for its end.
constexpr uint32_t kSuperblockFormat = 4;
constexpr size_t kSlotSize = 4096;
constexpr size_t kSlotHeaderSize = 16;  // magic, format, payload_len, crc

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void AppendU16(std::string* out, uint16_t v) {
  char buf[2];
  EncodeFixed16(buf, v);
  out->append(buf, 2);
}
void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  out->append(buf, 4);
}
void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  out->append(buf, 8);
}

/// Bounds-checked sequential reader over a slot payload.
struct Cursor {
  const char* p;
  size_t left;
  bool ok = true;

  bool Take(size_t n, const char** out) {
    if (!ok || left < n) {
      ok = false;
      return false;
    }
    *out = p;
    p += n;
    left -= n;
    return true;
  }
  uint8_t U8() {
    const char* b;
    return Take(1, &b) ? static_cast<uint8_t>(*b) : 0;
  }
  /// A flag byte is 0 or 1; any other value fails the read.
  bool Flag() {
    const uint8_t v = U8();
    if (v > 1) ok = false;
    return v == 1;
  }
  uint16_t U16() {
    const char* b;
    return Take(2, &b) ? DecodeFixed16(b) : 0;
  }
  uint32_t U32() {
    const char* b;
    return Take(4, &b) ? DecodeFixed32(b) : 0;
  }
  uint64_t U64() {
    const char* b;
    return Take(8, &b) ? DecodeFixed64(b) : 0;
  }
};

std::string EncodePayload(const SuperblockData& d) {
  std::string out;
  AppendU64(&out, d.version);
  AppendU64(&out, d.checkpoint_lsn);
  AppendU32(&out, d.page_size);
  AppendU32(&out, d.num_pages);
  AppendU32(&out, d.heap_first_page);
  AppendU32(&out, d.btree_meta_page);
  AppendU8(&out, d.clean_shutdown ? 1 : 0);
  AppendU8(&out, d.reuse_free_slots ? 1 : 0);
  AppendU8(&out, d.enable_index_cache ? 1 : 0);
  AppendU32(&out, static_cast<uint32_t>(d.key_columns.size()));
  for (uint32_t c : d.key_columns) AppendU32(&out, c);
  AppendU32(&out, static_cast<uint32_t>(d.cached_columns.size()));
  for (uint32_t c : d.cached_columns) AppendU32(&out, c);
  AppendU32(&out, static_cast<uint32_t>(d.columns.size()));
  for (const Column& col : d.columns) {
    AppendU8(&out, static_cast<uint8_t>(col.type));
    AppendU32(&out, static_cast<uint32_t>(col.length));
    AppendU16(&out, static_cast<uint16_t>(col.name.size()));
    out.append(col.name);
  }
  return out;
}

bool DecodePayload(const char* payload, size_t len, SuperblockData* d) {
  Cursor c{payload, len};
  d->version = c.U64();
  d->checkpoint_lsn = c.U64();
  d->page_size = c.U32();
  d->num_pages = c.U32();
  d->heap_first_page = c.U32();
  d->btree_meta_page = c.U32();
  d->clean_shutdown = c.Flag();
  d->reuse_free_slots = c.Flag();
  d->enable_index_cache = c.Flag();
  const uint32_t nkey = c.U32();
  if (!c.ok || nkey > 256) return false;
  d->key_columns.resize(nkey);
  for (uint32_t i = 0; i < nkey; ++i) d->key_columns[i] = c.U32();
  const uint32_t ncached = c.U32();
  if (!c.ok || ncached > 256) return false;
  d->cached_columns.resize(ncached);
  for (uint32_t i = 0; i < ncached; ++i) d->cached_columns[i] = c.U32();
  const uint32_t ncols = c.U32();
  if (!c.ok || ncols > 256) return false;
  d->columns.resize(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    Column& col = d->columns[i];
    col.type = static_cast<TypeId>(c.U8());
    col.length = c.U32();
    const uint16_t name_len = c.U16();
    const char* name;
    if (!c.Take(name_len, &name)) return false;
    col.name.assign(name, name_len);
  }
  // Bytes past the last field are not part of any superblock this build
  // writes.
  return c.ok && c.left == 0;
}

/// True iff the slot's magic and payload CRC verify, whatever its format.
bool SlotVerifies(const char* slot) {
  if (DecodeFixed32(slot) != kSuperblockMagic) return false;
  const uint32_t payload_len = DecodeFixed32(slot + 8);
  if (payload_len > kSlotSize - kSlotHeaderSize) return false;
  return DecodeFixed32(slot + 12) ==
         Crc32(slot + kSlotHeaderSize, payload_len);
}

/// Validates one raw slot; fills `d` and returns true iff it is intact and
/// of this build's format.
bool DecodeSlot(const char* slot, SuperblockData* d) {
  return SlotVerifies(slot) &&
         DecodeFixed32(slot + 4) == kSuperblockFormat &&
         DecodePayload(slot + kSlotHeaderSize, DecodeFixed32(slot + 8), d);
}

}  // namespace

std::string Superblock::PathFor(const std::string& db_path) {
  return db_path + ".sb";
}

Status Superblock::Write(const std::string& sb_path,
                         const SuperblockData& data) {
  const std::string payload = EncodePayload(data);
  if (payload.size() > kSlotSize - kSlotHeaderSize) {
    return Status::InvalidArgument("superblock payload too large: " +
                                   std::to_string(payload.size()));
  }
  std::string slot(kSlotSize, '\0');
  EncodeFixed32(slot.data(), kSuperblockMagic);
  EncodeFixed32(slot.data() + 4, kSuperblockFormat);
  EncodeFixed32(slot.data() + 8, static_cast<uint32_t>(payload.size()));
  EncodeFixed32(slot.data() + 12, Crc32(payload.data(), payload.size()));
  std::memcpy(slot.data() + kSlotHeaderSize, payload.data(), payload.size());

  const int fd = ::open(sb_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open failed for " + sb_path + ": " +
                           std::strerror(errno));
  }
  const off_t off =
      static_cast<off_t>((data.version % 2) * kSlotSize);
  size_t done = 0;
  while (done < kSlotSize) {
    const ssize_t n = ::pwrite(fd, slot.data() + done, kSlotSize - done,
                               off + static_cast<off_t>(done));
    if (n <= 0) {
      ::close(fd);
      return Status::IOError("superblock write failed: " +
                             std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IOError("superblock fsync failed");
  }
  ::close(fd);
  return Status::OK();
}

Result<SuperblockData> Superblock::Read(const std::string& sb_path) {
  const int fd = ::open(sb_path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no superblock at " + sb_path);
    }
    return Status::IOError("open failed for " + sb_path + ": " +
                           std::strerror(errno));
  }
  char slots[2 * kSlotSize];
  std::memset(slots, 0, sizeof(slots));
  size_t done = 0;
  while (done < sizeof(slots)) {
    const ssize_t n = ::pread(fd, slots + done, sizeof(slots) - done,
                              static_cast<off_t>(done));
    if (n < 0) {
      ::close(fd);
      return Status::IOError("superblock read failed");
    }
    if (n == 0) break;  // short file: missing slot bytes stay zero (invalid)
    done += static_cast<size_t>(n);
  }
  ::close(fd);

  SuperblockData a, b;
  const bool a_ok = DecodeSlot(slots, &a);
  const bool b_ok = DecodeSlot(slots + kSlotSize, &b);
  if (!a_ok && !b_ok) {
    // An intact slot of another format was written by another build: say
    // so instead of calling the file corrupt.
    for (const char* slot : {slots, slots + kSlotSize}) {
      if (SlotVerifies(slot)) {
        return Status::NotSupported(
            sb_path + " has on-disk format " +
            std::to_string(DecodeFixed32(slot + 4)) +
            "; this build reads format " + std::to_string(kSuperblockFormat));
      }
    }
    return Status::Corruption("no valid superblock slot in " + sb_path);
  }
  if (a_ok && b_ok) return a.version >= b.version ? a : b;
  return a_ok ? a : b;
}

}  // namespace nblb
