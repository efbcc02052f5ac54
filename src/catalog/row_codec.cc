#include "catalog/row_codec.h"

#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace nblb {

namespace {

/// Width of column `i` in a fixed image, from the precomputed offsets
/// (Column::ByteSize is an out-of-line call per column).
size_t FixedWidth(const Schema& s, size_t i) {
  return (i + 1 < s.num_columns() ? s.offset(i + 1) : s.row_size()) -
         s.offset(i);
}

/// Writes `v` as column `c` at `p`: the column's fixed width, except that a
/// kVarchar in a trimmed image stops after the bytes it uses.
Status EncodeValue(const Value& v, const Column& c, bool trimmed, char* p) {
  switch (c.type) {
    case TypeId::kBool: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("expected integer for " + c.name);
      *p = v.AsInt() != 0 ? 1 : 0;
      return Status::OK();
    }
    case TypeId::kInt8: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("expected integer for " + c.name);
      *p = static_cast<char>(v.AsInt());
      return Status::OK();
    }
    case TypeId::kInt16: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("expected integer for " + c.name);
      EncodeFixed16(p, static_cast<uint16_t>(v.AsInt()));
      return Status::OK();
    }
    case TypeId::kInt32: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("expected integer for " + c.name);
      EncodeFixed32(p, static_cast<uint32_t>(v.AsInt()));
      return Status::OK();
    }
    case TypeId::kTimestamp: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("expected integer for " + c.name);
      EncodeFixed32(p, static_cast<uint32_t>(v.AsInt()));
      return Status::OK();
    }
    case TypeId::kInt64: {
      if (!IsIntegerFamily(v.type()))
        return Status::InvalidArgument("expected integer for " + c.name);
      EncodeFixed64(p, static_cast<uint64_t>(v.AsInt()));
      return Status::OK();
    }
    case TypeId::kFloat64: {
      if (v.type() != TypeId::kFloat64)
        return Status::InvalidArgument("expected float64 for " + c.name);
      double d = v.AsDouble();
      std::memcpy(p, &d, 8);
      return Status::OK();
    }
    case TypeId::kChar: {
      if (!IsStringFamily(v.type()))
        return Status::InvalidArgument("expected string for " + c.name);
      const std::string& s = v.AsString();
      if (s.size() > c.length)
        return Status::InvalidArgument("string too long for " + c.name);
      std::memcpy(p, s.data(), s.size());
      std::memset(p + s.size(), ' ', c.length - s.size());
      return Status::OK();
    }
    case TypeId::kVarchar: {
      if (!IsStringFamily(v.type()))
        return Status::InvalidArgument("expected string for " + c.name);
      const std::string& s = v.AsString();
      if (s.size() > c.length)
        return Status::InvalidArgument("string too long for " + c.name);
      EncodeFixed16(p, static_cast<uint16_t>(s.size()));
      std::memcpy(p + 2, s.data(), s.size());
      if (!trimmed) std::memset(p + 2 + s.size(), 0, c.length - s.size());
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown type");
}

/// Decodes a column of any type but kVarchar from its fixed-width bytes.
Value DecodeScalar(const char* p, const Column& c) {
  switch (c.type) {
    case TypeId::kBool:
      return Value::Bool(*p != 0);
    case TypeId::kInt8:
      return Value::Int8(static_cast<int8_t>(*p));
    case TypeId::kInt16:
      return Value::Int16(static_cast<int16_t>(DecodeFixed16(p)));
    case TypeId::kInt32:
      return Value::Int32(static_cast<int32_t>(DecodeFixed32(p)));
    case TypeId::kTimestamp:
      return Value::Timestamp(DecodeFixed32(p));
    case TypeId::kInt64:
      return Value::Int64(static_cast<int64_t>(DecodeFixed64(p)));
    case TypeId::kFloat64: {
      double d;
      std::memcpy(&d, p, 8);
      return Value::Float64(d);
    }
    case TypeId::kChar: {
      size_t len = c.length;
      while (len > 0 && p[len - 1] == ' ') --len;
      return Value::Char(std::string(p, len));
    }
    case TypeId::kVarchar:
      break;
  }
  NBLB_CHECK_MSG(false, "unknown type");
  return Value();
}

}  // namespace

Status RowCodec::Encode(const Row& row, char* dst) const {
  if (row.size() != schema_->num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    NBLB_RETURN_NOT_OK(EncodeValue(row[i], schema_->column(i),
                                   /*trimmed=*/false,
                                   dst + schema_->offset(i)));
  }
  return Status::OK();
}

Result<std::string> RowCodec::Encode(const Row& row) const {
  std::string out(schema_->row_size(), '\0');
  NBLB_RETURN_NOT_OK(Encode(row, out.data()));
  return out;
}

Status RowCodec::EncodeTrimmed(const Row& row, std::string* dst) const {
  if (row.size() != schema_->num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  dst->resize(schema_->row_size());  // a trimmed image is never longer
  size_t pos = 0;
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& c = schema_->column(i);
    NBLB_RETURN_NOT_OK(
        EncodeValue(row[i], c, /*trimmed=*/true, dst->data() + pos));
    pos += c.type == TypeId::kVarchar ? 2 + row[i].AsString().size()
                                      : FixedWidth(*schema_, i);
  }
  dst->resize(pos);
  return Status::OK();
}

Status RowCodec::CorruptColumn(const char* what, const Column& c) {
  return Status::Corruption(std::string(what) + " in row column " + c.name);
}

Status RowCodec::DecodeInto(const Slice& src, Row* row) const {
  row->clear();
  row->reserve(schema_->num_columns());
  Status s = Walk(src, [row](const Column& c, const char* p, size_t n) {
    row->push_back(c.type == TypeId::kVarchar
                       ? Value::Varchar(std::string(p, n))
                       : DecodeScalar(p, c));
  });
  if (!s.ok()) row->clear();
  return s;
}

Result<Row> RowCodec::Decode(const Slice& src) const {
  Row row;
  NBLB_RETURN_NOT_OK(DecodeInto(src, &row));
  return row;
}

}  // namespace nblb
