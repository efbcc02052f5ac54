#include "catalog/row_codec.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace nblb {
namespace {

Schema AllTypesSchema() {
  return Schema({{"b", TypeId::kBool, 0},
                 {"i8", TypeId::kInt8, 0},
                 {"i16", TypeId::kInt16, 0},
                 {"i32", TypeId::kInt32, 0},
                 {"i64", TypeId::kInt64, 0},
                 {"f", TypeId::kFloat64, 0},
                 {"ts", TypeId::kTimestamp, 0},
                 {"c", TypeId::kChar, 8},
                 {"v", TypeId::kVarchar, 16}});
}

TEST(RowCodecTest, RoundTripAllTypes) {
  Schema s = AllTypesSchema();
  RowCodec codec(&s);
  Row row = {Value::Bool(true),     Value::Int8(-5),
             Value::Int16(-3000),   Value::Int32(123456),
             Value::Int64(-9e15),   Value::Float64(3.25),
             Value::Timestamp(1293840000), Value::Char("abc"),
             Value::Varchar("hello")};
  ASSERT_OK_AND_ASSIGN(std::string bytes, codec.Encode(row));
  EXPECT_EQ(bytes.size(), s.row_size());
  ASSERT_OK_AND_ASSIGN(Row out, codec.Decode(Slice(bytes)));
  ASSERT_EQ(out.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(out[i], row[i]) << "column " << i;
  }
}

TEST(RowCodecTest, DecodeRejectsMalformedImages) {
  Schema s({{"b", TypeId::kBool, 0},
            {"v", TypeId::kVarchar, 8},
            {"i", TypeId::kInt32, 0}});
  RowCodec codec(&s);
  const Row row = {Value::Bool(true), Value::Varchar("abc"), Value::Int32(7)};
  ASSERT_OK_AND_ASSIGN(std::string fixed, codec.Encode(row));
  std::string trimmed;
  ASSERT_OK(codec.EncodeTrimmed(row, &trimmed));
  ASSERT_EQ(fixed.size(), 1 + 2 + 8 + 4u);
  ASSERT_EQ(trimmed.size(), 1 + 2 + 3 + 4u);
  const auto rejects = [&](std::string bytes, const char* why) {
    EXPECT_TRUE(codec.Decode(Slice(bytes)).status().IsCorruption()) << why;
  };
  for (const std::string& image : {fixed, trimmed}) {
    std::string over = image;
    over[1] = 9;  // VARCHAR length past the capacity of 8
    rejects(over, "length over capacity");
    std::string flag = image;
    flag[0] = 2;
    rejects(flag, "BOOL byte other than 0/1");
  }
  rejects(fixed + '\0', "longer than row_size");
  rejects(trimmed + '\0', "trailing byte");
  rejects(trimmed.substr(0, trimmed.size() - 1), "truncated INT32");
  rejects(trimmed.substr(0, 4), "truncated VARCHAR bytes");
  rejects(trimmed.substr(0, 2), "truncated VARCHAR length");
  std::string long_len = trimmed;
  long_len[1] = 4;  // claims one byte more than the image holds
  rejects(long_len, "length past the end of a trimmed image");
  // The unmodified images decode.
  ASSERT_OK_AND_ASSIGN(Row a, codec.Decode(Slice(fixed)));
  ASSERT_OK_AND_ASSIGN(Row b, codec.Decode(Slice(trimmed)));
  EXPECT_EQ(a, row);
  EXPECT_EQ(b, row);
}

TEST(RowCodecTest, ArityMismatchFails) {
  Schema s = AllTypesSchema();
  RowCodec codec(&s);
  Row short_row = {Value::Bool(true)};
  EXPECT_TRUE(codec.Encode(short_row).status().IsInvalidArgument());
}

TEST(RowCodecTest, FamilyMismatchFails) {
  Schema s({{"i", TypeId::kInt32, 0}});
  RowCodec codec(&s);
  EXPECT_TRUE(codec.Encode({Value::Varchar("nope")}).status()
                  .IsInvalidArgument());
}

TEST(RowCodecTest, OverlongStringFails) {
  Schema s({{"v", TypeId::kVarchar, 4}});
  RowCodec codec(&s);
  EXPECT_TRUE(codec.Encode({Value::Varchar("too-long")}).status()
                  .IsInvalidArgument());
  EXPECT_OK(codec.Encode({Value::Varchar("fits")}).status());
}

TEST(RowCodecTest, CharPaddingIsStripped) {
  Schema s({{"c", TypeId::kChar, 10}});
  RowCodec codec(&s);
  ASSERT_OK_AND_ASSIGN(std::string bytes, codec.Encode({Value::Char("hi")}));
  ASSERT_OK_AND_ASSIGN(Row out, codec.Decode(Slice(bytes)));
  EXPECT_EQ(out[0].AsString(), "hi");
}

TEST(RowCodecTest, VarcharPreservesExactLengthIncludingEmpty) {
  Schema s({{"v", TypeId::kVarchar, 10}});
  RowCodec codec(&s);
  for (const std::string& input : {std::string(""), std::string("a"),
                                   std::string("exactly10!")}) {
    ASSERT_OK_AND_ASSIGN(std::string fixed,
                         codec.Encode({Value::Varchar(input)}));
    ASSERT_OK_AND_ASSIGN(Row out, codec.Decode(Slice(fixed)));
    EXPECT_EQ(out[0].AsString(), input);
    // The trimmed image is the length prefix plus the bytes used.
    std::string trimmed;
    ASSERT_OK(codec.EncodeTrimmed({Value::Varchar(input)}, &trimmed));
    EXPECT_EQ(trimmed.size(), 2 + input.size());
    ASSERT_OK_AND_ASSIGN(Row back, codec.Decode(Slice(trimmed)));
    EXPECT_EQ(back[0].AsString(), input);
  }
}

TEST(RowCodecTest, RandomizedRoundTrip) {
  Schema s = AllTypesSchema();
  RowCodec codec(&s);
  Rng rng(99);
  std::string trimmed;
  for (int iter = 0; iter < 500; ++iter) {
    // Every 4th row pins the VARCHAR to an edge: empty, 1 byte, or full.
    const size_t edge_len[] = {0, 1, 16};
    const size_t vlen =
        iter % 4 == 0 ? edge_len[(iter / 4) % 3] : rng.Uniform(17);
    Row row = {Value::Bool(rng.Bernoulli(0.5)),
               Value::Int8(static_cast<int8_t>(rng.NextU64())),
               Value::Int16(static_cast<int16_t>(rng.NextU64())),
               Value::Int32(static_cast<int32_t>(rng.NextU64())),
               Value::Int64(static_cast<int64_t>(rng.NextU64())),
               Value::Float64(rng.NextDouble() * 1e9),
               Value::Timestamp(static_cast<uint32_t>(rng.NextU64())),
               Value::Char(rng.NextString(rng.Uniform(9))),
               Value::Varchar(rng.NextString(vlen))};
    ASSERT_OK_AND_ASSIGN(std::string fixed, codec.Encode(row));
    ASSERT_OK(codec.EncodeTrimmed(row, &trimmed));
    EXPECT_EQ(trimmed.size(), s.row_size() - (16 - vlen)) << "iter " << iter;
    // The rule Decode tells the layouts apart by: a trimmed image is
    // row_size() long only when the VARCHAR is full, and then it IS the
    // fixed image.
    if (vlen == 16) {
      EXPECT_EQ(trimmed, fixed) << "iter " << iter;
    }
    for (const std::string* image : {&fixed, &trimmed}) {
      ASSERT_OK_AND_ASSIGN(Row out, codec.Decode(Slice(*image)));
      for (size_t i = 0; i < row.size(); ++i) {
        // kChar strips trailing spaces by design; our random strings have
        // none.
        EXPECT_EQ(out[i], row[i]) << "iter " << iter << " column " << i;
      }
    }
  }
}

}  // namespace
}  // namespace nblb
