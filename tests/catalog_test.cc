#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "catalog/type.h"
#include "catalog/value.h"
#include "test_util.h"

namespace nblb {
namespace {

TEST(TypeTest, SizesAreFixed) {
  EXPECT_EQ(TypeSize(TypeId::kBool, 0), 1u);
  EXPECT_EQ(TypeSize(TypeId::kInt8, 0), 1u);
  EXPECT_EQ(TypeSize(TypeId::kInt16, 0), 2u);
  EXPECT_EQ(TypeSize(TypeId::kInt32, 0), 4u);
  EXPECT_EQ(TypeSize(TypeId::kInt64, 0), 8u);
  EXPECT_EQ(TypeSize(TypeId::kFloat64, 0), 8u);
  EXPECT_EQ(TypeSize(TypeId::kTimestamp, 0), 4u);
  EXPECT_EQ(TypeSize(TypeId::kChar, 14), 14u);
  EXPECT_EQ(TypeSize(TypeId::kVarchar, 255), 257u);  // 2-byte length prefix
}

TEST(TypeTest, FamilyPredicates) {
  EXPECT_TRUE(IsIntegerFamily(TypeId::kBool));
  EXPECT_TRUE(IsIntegerFamily(TypeId::kTimestamp));
  EXPECT_FALSE(IsIntegerFamily(TypeId::kFloat64));
  EXPECT_TRUE(IsStringFamily(TypeId::kChar));
  EXPECT_TRUE(IsStringFamily(TypeId::kVarchar));
  EXPECT_FALSE(IsStringFamily(TypeId::kInt32));
}

TEST(ValueTest, ComparisonWithinFamilies) {
  EXPECT_LT(Value::Int32(1).Compare(Value::Int32(2)), 0);
  EXPECT_EQ(Value::Int32(5), Value::Int64(5));  // family-compatible
  EXPECT_LT(Value::Varchar("a"), Value::Varchar("b"));
  EXPECT_LT(Value::Float64(1.5).Compare(Value::Float64(2.5)), 0);
  EXPECT_EQ(Value::Bool(true).AsInt(), 1);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int64(-42).ToString(), "-42");
  EXPECT_EQ(Value::Varchar("abc").ToString(), "abc");
  EXPECT_EQ(Value::Timestamp(1000).ToString(), "1000");
}

TEST(SchemaTest, OffsetsAndRowSize) {
  Schema s({{"a", TypeId::kInt32, 0},
            {"b", TypeId::kChar, 10},
            {"c", TypeId::kInt64, 0}});
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 4u);
  EXPECT_EQ(s.offset(2), 14u);
  EXPECT_EQ(s.row_size(), 22u);
}

TEST(SchemaTest, FindColumn) {
  Schema s({{"x", TypeId::kInt32, 0}, {"y", TypeId::kInt64, 0}});
  EXPECT_EQ(s.FindColumn("y").value(), 1u);
  EXPECT_FALSE(s.FindColumn("z").has_value());
}

TEST(SchemaTest, ProjectPreservesOrderAndTypes) {
  Schema s({{"a", TypeId::kInt32, 0},
            {"b", TypeId::kChar, 10},
            {"c", TypeId::kInt64, 0}});
  Schema p = s.Project({2, 0});
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.column(0).name, "c");
  EXPECT_EQ(p.column(1).name, "a");
  EXPECT_EQ(p.row_size(), 12u);
}

}  // namespace
}  // namespace nblb
