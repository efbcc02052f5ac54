#include "catalog/key_codec.h"

#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace nblb {

namespace {

// Order-preserving transform of an IEEE-754 double: positives get the sign
// bit flipped, negatives get all bits flipped; the result sorts like the
// original under unsigned comparison.
uint64_t EncodeDoubleOrdered(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  if (bits >> 63) return ~bits;
  return bits | (1ull << 63);
}

double DecodeDoubleOrdered(uint64_t bits) {
  if (bits >> 63) {
    bits &= ~(1ull << 63);
  } else {
    bits = ~bits;
  }
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

// Width of a key column in the encoded key. Strings occupy their capacity
// (no length prefix: zero padding keeps prefix order).
size_t KeyFieldSize(const Column& c) {
  switch (c.type) {
    case TypeId::kBool:
    case TypeId::kInt8:
      return 1;
    case TypeId::kInt16:
      return 2;
    case TypeId::kInt32:
    case TypeId::kTimestamp:
      return 4;
    case TypeId::kInt64:
    case TypeId::kFloat64:
      return 8;
    case TypeId::kChar:
    case TypeId::kVarchar:
      return c.length;
  }
  NBLB_CHECK_MSG(false, "unknown type");
  return 0;
}

}  // namespace

KeyCodec::KeyCodec(const Schema* schema, std::vector<size_t> key_columns)
    : schema_(schema), key_columns_(std::move(key_columns)) {
  size_t off = 0;
  key_offsets_.reserve(key_columns_.size());
  for (size_t col : key_columns_) {
    NBLB_CHECK(col < schema_->num_columns());
    key_offsets_.push_back(off);
    off += KeyFieldSize(schema_->column(col));
  }
  key_size_ = off;
}

Status KeyCodec::EncodeOne(const Value& v, const Column& c, char* dst) const {
  switch (c.type) {
    case TypeId::kBool:
    case TypeId::kInt8: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("key type mismatch on " + c.name);
      // Sign-flip in one byte.
      dst[0] = static_cast<char>(static_cast<unsigned char>(v.AsInt()) ^ 0x80);
      return Status::OK();
    }
    case TypeId::kInt16: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("key type mismatch on " + c.name);
      uint16_t u = static_cast<uint16_t>(v.AsInt()) ^ 0x8000;
      dst[0] = static_cast<char>(u >> 8);
      dst[1] = static_cast<char>(u & 0xff);
      return Status::OK();
    }
    case TypeId::kInt32: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("key type mismatch on " + c.name);
      EncodeBigEndian32(dst, static_cast<uint32_t>(v.AsInt()) ^ 0x80000000u);
      return Status::OK();
    }
    case TypeId::kTimestamp: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("key type mismatch on " + c.name);
      EncodeBigEndian32(dst, static_cast<uint32_t>(v.AsInt()));
      return Status::OK();
    }
    case TypeId::kInt64: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("key type mismatch on " + c.name);
      EncodeBigEndian64(dst, SignFlip64(v.AsInt()));
      return Status::OK();
    }
    case TypeId::kFloat64: {
      if (v.type() != TypeId::kFloat64)
        return Status::InvalidArgument("key type mismatch on " + c.name);
      EncodeBigEndian64(dst, EncodeDoubleOrdered(v.AsDouble()));
      return Status::OK();
    }
    case TypeId::kChar:
    case TypeId::kVarchar: {
      if (!IsStringFamily(v.type()))
        return Status::InvalidArgument("key type mismatch on " + c.name);
      const std::string& s = v.AsString();
      if (s.size() > c.length)
        return Status::InvalidArgument("key string too long on " + c.name);
      std::memcpy(dst, s.data(), s.size());
      std::memset(dst + s.size(), 0, c.length - s.size());
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown key type");
}

Value KeyCodec::DecodeOne(const char* src, const Column& c) const {
  switch (c.type) {
    case TypeId::kBool:
      return Value::Bool((static_cast<unsigned char>(src[0]) ^ 0x80) != 0);
    case TypeId::kInt8:
      return Value::Int8(
          static_cast<int8_t>(static_cast<unsigned char>(src[0]) ^ 0x80));
    case TypeId::kInt16: {
      uint16_t u = (static_cast<uint16_t>(static_cast<unsigned char>(src[0]))
                    << 8) |
                   static_cast<unsigned char>(src[1]);
      return Value::Int16(static_cast<int16_t>(u ^ 0x8000));
    }
    case TypeId::kInt32:
      return Value::Int32(
          static_cast<int32_t>(DecodeBigEndian32(src) ^ 0x80000000u));
    case TypeId::kTimestamp:
      return Value::Timestamp(DecodeBigEndian32(src));
    case TypeId::kInt64:
      return Value::Int64(SignUnflip64(DecodeBigEndian64(src)));
    case TypeId::kFloat64:
      return Value::Float64(DecodeDoubleOrdered(DecodeBigEndian64(src)));
    case TypeId::kChar:
    case TypeId::kVarchar: {
      size_t len = c.length;
      while (len > 0 && src[len - 1] == '\0') --len;
      std::string s(src, len);
      return c.type == TypeId::kChar ? Value::Char(std::move(s))
                                     : Value::Varchar(std::move(s));
    }
  }
  NBLB_CHECK_MSG(false, "unknown type");
  return Value();
}

Result<std::string> KeyCodec::EncodeFromRow(const Row& row) const {
  if (row.size() != schema_->num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  std::string out(key_size_, '\0');
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    NBLB_RETURN_NOT_OK(EncodeOne(row[key_columns_[i]],
                                 schema_->column(key_columns_[i]),
                                 out.data() + key_offsets_[i]));
  }
  return out;
}

Result<std::string> KeyCodec::EncodeValues(
    const std::vector<Value>& key_values) const {
  if (key_values.size() != key_columns_.size()) {
    return Status::InvalidArgument("key arity mismatch");
  }
  std::string out(key_size_, '\0');
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    NBLB_RETURN_NOT_OK(EncodeOne(key_values[i],
                                 schema_->column(key_columns_[i]),
                                 out.data() + key_offsets_[i]));
  }
  return out;
}

void KeyCodec::EncodeInteger(int64_t v, char* dst) const {
  NBLB_CHECK(key_columns_.size() == 1);
  // An integer-family column takes any integer value (a narrower column
  // keeps the low bytes, as EncodeValues does), so this cannot fail.
  NBLB_CHECK(
      EncodeOne(Value::Int64(v), schema_->column(key_columns_[0]), dst).ok());
}

std::vector<Value> KeyCodec::Decode(const Slice& key) const {
  NBLB_CHECK(key.size() == key_size_);
  std::vector<Value> out;
  out.reserve(key_columns_.size());
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    out.push_back(
        DecodeOne(key.data() + key_offsets_[i], schema_->column(key_columns_[i])));
  }
  return out;
}

}  // namespace nblb
