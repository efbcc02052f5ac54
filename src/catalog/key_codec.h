// KeyCodec: memcmp-comparable fixed-width encoding of (composite) keys.
//
// The B+Tree stores raw byte keys and orders them with memcmp; this codec
// guarantees byte order == value order:
//   - signed integers: sign-bit flip then big endian
//   - timestamps/bools: big endian unsigned
//   - float64: IEEE total-order trick (flip sign bit for positives, all bits
//     for negatives)
//   - strings: zero-padded to the declared capacity
//
// The composite (namespace, title) key of Wikipedia's name_title index
// (§2.1.4) is the motivating example.

#pragma once

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/result.h"
#include "common/slice.h"

namespace nblb {

/// \brief Encodes key columns of a schema into fixed-width comparable bytes.
class KeyCodec {
 public:
  /// \param schema       the table schema
  /// \param key_columns  indexes (into the schema) of the key columns, in
  ///                     significance order
  KeyCodec(const Schema* schema, std::vector<size_t> key_columns);

  /// \brief Total fixed key width in bytes.
  size_t key_size() const { return key_size_; }

  const std::vector<size_t>& key_columns() const { return key_columns_; }

  /// \brief Encodes the key columns of a full row.
  Result<std::string> EncodeFromRow(const Row& row) const;

  /// \brief Encodes explicit key values (arity must match key_columns).
  Result<std::string> EncodeValues(const std::vector<Value>& key_values) const;

  /// \brief Writes the key of one integer-family key column holding `v`
  /// into key_size() bytes at `dst`: the bytes EncodeValues({Int64(v)})
  /// returns, without building a value vector or a string. Only for a
  /// single integer-family key column.
  void EncodeInteger(int64_t v, char* dst) const;

  /// \brief Decodes a key back into its column values.
  std::vector<Value> Decode(const Slice& key) const;

 private:
  Status EncodeOne(const Value& v, const Column& c, char* dst) const;
  Value DecodeOne(const char* src, const Column& c) const;

  const Schema* schema_;
  std::vector<size_t> key_columns_;
  std::vector<size_t> key_offsets_;  // offset of each key column in the key
  size_t key_size_;
};

}  // namespace nblb
