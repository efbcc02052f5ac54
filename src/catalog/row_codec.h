// RowCodec: serialization of rows against a fixed schema.
//
// Layouts (integers little endian in both; kChar space-padded to its
// declared length; kVarchar a 2-byte length followed by its bytes):
//
//   fixed image    columns back to back at their schema offsets, exactly
//                  row_size() bytes; each kVarchar is followed by its whole
//                  declared capacity, zero past the length. Index-cache
//                  payloads use it, so a cache item's width is known from
//                  the schema.
//   trimmed image  the same bytes in the same order, with each kVarchar cut
//                  to its length plus the bytes it uses; every other column
//                  is byte-identical. Heap tuples and WAL put payloads use
//                  it (the padding holds no data, and heap pages and the log
//                  pay for every byte).
//
// A trimmed image is row_size() bytes long only when every kVarchar is full,
// and is then byte-identical to the fixed image. So Decode reads a payload of
// exactly row_size() bytes as a fixed image and a shorter one as trimmed,
// with no format flag.
//
// Walk is the one parser of stored images, and it is checked: the bytes it
// reads come from disk (heap pages carry no checksum) or from a log, and a
// bad length must surface as Corruption, never as a read past the buffer.
// It hands each column's bytes to a sink, and every reader of an image is
// Walk plus a sink: DecodeInto builds Values (Decode wraps it), Check builds
// nothing, and the network encoder transcodes the bytes straight into a
// wire row (net/wire.cc). So they accept and reject exactly the same images,
// with the same Corruption messages. An accepted payload re-encodes to
// itself, except that a fixed image's VARCHAR padding is never read (it
// holds no data) and re-encodes as zeros.

#pragma once

#include <cstdint>
#include <string>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/bytes.h"
#include "common/result.h"
#include "common/slice.h"

namespace nblb {

/// \brief Where one checked row image sits in a buffer of images (a
/// BatchResult's per-shard image buffers, see shard/request.h).
struct ImageSpan {
  uint32_t offset = 0;
  uint32_t size = 0;
  bool present = false;  ///< false: no image (the row form carries the row)
};

/// \brief Encodes/decodes rows against a fixed schema.
class RowCodec {
 public:
  explicit RowCodec(const Schema* schema) : schema_(schema) {}

  /// \brief Serializes `row` as a fixed image into exactly
  /// schema->row_size() bytes at `dst`. Fails if the row arity or value
  /// families don't match, or a string exceeds its declared capacity.
  Status Encode(const Row& row, char* dst) const;

  /// \brief Serializes a fixed image into a fresh string.
  Result<std::string> Encode(const Row& row) const;

  /// \brief Replaces `*dst` with the trimmed image of `row` (same checks as
  /// Encode). Reusing one string across calls avoids an allocation per row.
  Status EncodeTrimmed(const Row& row, std::string* dst) const;

  /// \brief Deserializes a fixed image (src.size() == row_size()) or a
  /// trimmed one (shorter) into `*row`, replacing its contents and reusing
  /// its capacity. Returns Corruption on a longer payload, a kVarchar length
  /// over capacity, a truncated column, trailing bytes, or a kBool byte
  /// other than 0/1; `*row` is then left empty.
  Status DecodeInto(const Slice& src, Row* row) const;

  /// \brief DecodeInto a fresh row.
  Result<Row> Decode(const Slice& src) const;
  /// A bare pointer carries no length; pass a Slice.
  Result<Row> Decode(const char* src) const = delete;

  /// \brief Walk with no sink: OK exactly when DecodeInto would accept
  /// `src`, else its Corruption. Builds nothing.
  Status Check(const Slice& src) const {
    return Walk(src, [](const Column&, const char*, size_t) {});
  }

  /// \brief Walks the image `src` (fixed when src.size() == row_size(),
  /// else trimmed) column by column, with DecodeInto's checks, and calls
  /// `sink(column, bytes, n)` for each column in schema order: a VARCHAR's
  /// n used bytes after its length, a CHAR's whole declared length (padding
  /// included), any other column's fixed-width little-endian bytes (a BOOL
  /// byte is 0 or 1). Stops at the first bad column with its Corruption.
  template <typename Sink>
  Status Walk(const Slice& src, Sink&& sink) const;

  const Schema* schema() const { return schema_; }

 private:
  static Status CorruptColumn(const char* what, const Column& c);

  const Schema* schema_;
};

template <typename Sink>
Status RowCodec::Walk(const Slice& src, Sink&& sink) const {
  const Schema& schema = *schema_;
  if (src.size() > schema.row_size()) {
    return Status::Corruption("row image longer than the schema's row size");
  }
  const bool fixed = src.size() == schema.row_size();
  const char* p = src.data();
  const char* const end = p + src.size();
  const size_t n = schema.num_columns();
  for (size_t i = 0; i < n; ++i) {
    const Column& c = schema.column(i);
    const size_t left = static_cast<size_t>(end - p);
    if (c.type != TypeId::kVarchar) {
      // The fixed width, from the precomputed offsets (Column::ByteSize is
      // an out-of-line call).
      const size_t width =
          (i + 1 < n ? schema.offset(i + 1) : schema.row_size()) -
          schema.offset(i);
      if (left < width) return CorruptColumn("truncated value", c);
      if (c.type == TypeId::kBool && static_cast<uint8_t>(*p) > 1) {
        return CorruptColumn("BOOL byte other than 0 or 1", c);
      }
      sink(c, p, width);
      p += width;
      continue;
    }
    if (left < 2) return CorruptColumn("truncated VARCHAR length", c);
    const size_t len = DecodeFixed16(p);
    if (len > c.length) return CorruptColumn("VARCHAR length over capacity", c);
    const size_t width = 2 + (fixed ? c.length : len);
    if (left < width) return CorruptColumn("truncated VARCHAR bytes", c);
    sink(c, p + 2, len);
    p += width;
  }
  if (p != end) return Status::Corruption("trailing bytes after row image");
  return Status::OK();
}

}  // namespace nblb
