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
// DecodeInto is the only decoder (Decode wraps it) and it is checked: the
// bytes it reads come from disk (heap pages carry no checksum) or from a
// log, and a bad length must surface as Corruption, never as a read past the
// buffer. An accepted payload re-encodes to itself, except that a fixed
// image's VARCHAR padding is never read (it holds no data) and re-encodes as
// zeros.

#pragma once

#include <string>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/result.h"
#include "common/slice.h"

namespace nblb {

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

  const Schema* schema() const { return schema_; }

 private:
  const Schema* schema_;
};

}  // namespace nblb
